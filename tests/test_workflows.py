import hashlib
from dataclasses import replace

import numpy as np
import pytest

from vqechem.exceptions import (
    BarrierError,
    CurveAlignmentError,
    FitBracketError,
    ManifestError,
    ShapeError,
)
from vqechem.optimize import OptimizerConfig
from vqechem import ansatz, workflows
from vqechem.simulator import Circuit
from vqechem.units import HARTREE_TO_KCALMOL
from vqechem.workflows import (
    PesPoint,
    ScanManifest,
    ScanPoint,
    activation_energy,
    compare_curves,
    dissociation_energy,
    fit_equilibrium,
    h2_point,
    h3_exchange_point,
    integrals_for_point,
    load_manifest,
    parse_scan_csv,
    point_seed,
    run_scan,
    run_single_point,
    scan_csv,
    trace_csv,
)

FAST_OPTIMIZER = {
    "kind": "simplex",
    "max_iterations": 250,
    "convergence_threshold": 1e-9,
    "seed": 0,
}


def h2_manifest_doc(radii, **overrides):
    doc = {
        "label": "h2-test",
        "coordinate_unit": "angstrom",
        "ansatz": "uccsd",
        "mode": "exact",
        "optimizer": dict(FAST_OPTIMIZER),
        "seed": 3,
        "restarts": 1,
        "points": [h2_point(f"{r:.3f}", r) for r in radii],
    }
    doc.update(overrides)
    return doc


def test_fit_exact_parabola_recovers_vertex():
    coords = np.array([0.70, 0.72, 0.74, 0.76, 0.78])
    energies = (coords - 0.74) ** 2
    r_e, e_min = fit_equilibrium(coords, energies)
    assert abs(r_e - 0.74) < 1e-12
    assert abs(e_min) < 1e-12


def test_fit_requires_four_points():
    with pytest.raises(FitBracketError):
        fit_equilibrium([0.7, 0.8, 0.9], [1.0, 0.5, 1.0])


def test_fit_requires_interior_minimum():
    coords = [0.5, 0.6, 0.7, 0.8]
    with pytest.raises(FitBracketError):
        fit_equilibrium(coords, [1.0, 2.0, 3.0, 4.0])


def test_dissociation_flat_curve_is_zero():
    assert dissociation_energy([1.0, 2.0, 3.0, 4.0], [0.5, 0.5, 0.5, 0.5]) == 0.0


def test_dissociation_matches_morse_well_depth():
    depth, rate, r_eq, base = 0.17, 1.2, 1.0, -1.2

    def morse(r):
        return base + depth * (1.0 - np.exp(-rate * (r - r_eq))) ** 2

    coords = np.array([0.88, 0.92, 0.96, 1.0, 1.04, 1.08, 1.12, 8.0])
    energies = morse(coords)
    d_e = dissociation_energy(coords, energies)
    analytic = depth * HARTREE_TO_KCALMOL
    assert abs(d_e - analytic) < 0.1


def test_activation_energy_piecewise_double_well():
    # parabolic wells at +-1 joined to a parabolic cap; every fit window
    # sits on a single quadratic piece, so the cubic fits are exact
    def curve(x):
        return 0.5 - x * x if abs(x) <= 0.5 else (abs(x) - 1.0) ** 2

    coords = np.arange(-1.5, 1.55, 0.25)
    energies = np.array([curve(x) for x in coords])
    barrier = activation_energy(coords, energies)
    assert abs(barrier - 0.5 * HARTREE_TO_KCALMOL) < 1e-6


def test_activation_energy_monotone_curve_rejected():
    coords = [0.0, 1.0, 2.0, 3.0, 4.0]
    with pytest.raises(BarrierError):
        activation_energy(coords, [0.0, 0.1, 0.2, 0.3, 0.4])


WELL = ([0.5, 0.6, 0.7, 0.8, 0.9], [1.0, 0.5, 0.2, 0.5, 1.0])
PEAK = (WELL[0], [-e for e in WELL[1]])


@pytest.mark.parametrize("function, curve, error", [
    (fit_equilibrium, WELL, FitBracketError),
    (dissociation_energy, WELL, FitBracketError),
    (activation_energy, PEAK, BarrierError),
])
@pytest.mark.parametrize("corrupt, message", [
    (lambda c, e: (c, e[:-1]), "must match"),  # one energy short
    (lambda c, e: ([c, c], [e, e]), "must match"),  # 2-D
    (lambda c, e: (c, e[:2] + [float("nan")] + e[3:]), "finite"),
    (lambda c, e: (c[:-1] + [float("inf")], e), "finite"),
    (lambda c, e: (c[:3], e[:3]), "need at least 4 points, got 3"),
], ids=["short-energies", "two-dimensional", "nan-energy", "infinite-coordinate",
        "three-points"])
def test_curve_functions_refuse_bad_arrays_with_their_own_error(function, curve, error,
                                                                corrupt, message):
    # activation_energy raised IndexError on short energies and counted the rows of 2-D
    # input, and a NaN energy gave numpy's LinAlgError in all three
    with pytest.raises(error, match=message):
        function(*corrupt(*curve))


def test_compare_identical_curves_all_zero():
    curve = [("a", -1.0), ("b", -0.9)]
    report = compare_curves(curve, curve)
    assert all(row[3] == 0.0 for row in report.rows)
    assert report.mean_shift == 0.0


def test_compare_constant_offset():
    curve_a = [("a", -1.0), ("b", -0.9), ("c", -0.95)]
    curve_b = [(label, e - 0.04) for label, e in curve_a]
    report = compare_curves(curve_a, curve_b)
    assert report.mean_shift == pytest.approx(0.04, abs=1e-15)
    assert report.min_shift == pytest.approx(0.04, abs=1e-15)
    assert report.max_shift == pytest.approx(0.04, abs=1e-15)


def test_compare_label_mismatch():
    with pytest.raises(CurveAlignmentError):
        compare_curves([("a", 1.0)], [("b", 1.0)])


def test_h2s_fixture_pair_reports_published_shift(fixture_dir):
    import os

    from vqechem.exactdiag import ground_state_energy
    from vqechem.fermions import build_second_quantized, jordan_wigner

    def fci(stem):
        point = ScanPoint(stem, 0.0, fcidump_path=os.path.join(fixture_dir, stem + ".fcidump"))
        integrals = integrals_for_point(point, freeze=(0, 1))
        hamiltonian = jordan_wigner(build_second_quantized(integrals))
        return ground_state_energy(hamiltonian).energy

    nonrel = [("eq", fci("h2s_sto3g_nonrel_eq")), ("stretch", fci("h2s_sto3g_nonrel_stretch"))]
    rel = [("eq", fci("h2s_sto3g_rel_eq")), ("stretch", fci("h2s_sto3g_rel_stretch"))]
    report = compare_curves(nonrel, rel)
    eq_shift = report.rows[0][3]
    assert round(eq_shift, 4) == 0.0371


def test_h2s_electronic_relativistic_shift(fixture_dir):
    # each fixture's constant is calibrated to its target total energy, so the
    # total rel - nonrel shift is fixed by the generator; the shift of
    # E_FCI - E_const comes from the one- and two-body integrals alone
    import os

    from vqechem.exactdiag import ground_state_energy
    from vqechem.fermions import build_second_quantized, jordan_wigner

    def electronic(stem):
        point = ScanPoint(stem, 0.0, fcidump_path=os.path.join(fixture_dir, stem + ".fcidump"))
        integrals = integrals_for_point(point)
        assert (integrals.n_spatial_orbitals, integrals.n_electrons) == (6, 8)
        hamiltonian = jordan_wigner(build_second_quantized(integrals))
        energy = ground_state_energy(hamiltonian).energy
        return energy - integrals.constant_energy

    eq, stretch = (electronic(f"h2s_sto3g_rel_{g}") - electronic(f"h2s_sto3g_nonrel_{g}")
                   for g in ("eq", "stretch"))
    assert eq < -0.5 and stretch < -0.5
    assert abs(eq - stretch) < 1e-4


def test_sampled_point_groups_once(monkeypatch):
    from vqechem import measurement, optimize

    calls = []

    def counting(hamiltonian):
        calls.append(hamiltonian.n_terms)
        return measurement.group_commuting(hamiltonian)

    monkeypatch.setattr(workflows, "group_commuting", counting)
    monkeypatch.setattr(optimize, "group_commuting", counting)
    integrals = integrals_for_point(ScanPoint("h2", 0.74, geometry=h2_point("h2", 0.74)["geometry"]))
    config = OptimizerConfig(kind="spsa", max_iterations=5, seed=1)
    result = run_single_point(integrals, ansatz="hardware", optimizer=config,
                              mode="sampled", shots=64, restarts=1)
    assert len(calls) == 1
    assert result.n_groups == len(measurement.group_commuting(
        workflows.jordan_wigner(workflows.build_second_quantized(integrals))))


@pytest.mark.parametrize("ansatz", ["UCCSD", "hea", ""])
def test_single_point_refuses_an_unknown_ansatz(ansatz, monkeypatch):
    # refused before the Hamiltonian is built, not run as the hardware-efficient ansatz
    monkeypatch.setattr(workflows, "jordan_wigner", None)
    integrals = integrals_for_point(ScanPoint("h2", 0.74, geometry=h2_point("h2", 0.74)["geometry"]))
    with pytest.raises(ShapeError, match=f"unknown ansatz {ansatz!r}"):
        run_single_point(integrals, ansatz=ansatz)


def test_charged_point_reports_its_own_sector_fci():
    # the H3 cation at the reactant end: 2 electrons, not the neutral minimum
    point = h3_exchange_point("cation", -1.0)
    point["geometry"]["charge"] = 1
    integrals = integrals_for_point(ScanPoint("cation", -1.0, geometry=point["geometry"]))
    config = OptimizerConfig(kind="simplex", max_iterations=400,
                             convergence_threshold=1e-10, seed=0)
    result = run_single_point(integrals, optimizer=config, restarts=1)
    assert abs(result.e_fci - (-1.142784)) < 1e-6
    assert result.vqe.final_energy >= result.e_fci - 1e-9
    assert abs(result.error_mha) < 1.6


def test_scan_pipeline_small_h2():
    manifest = load_manifest(h2_manifest_doc([0.70, 0.74, 0.78]))
    points, errors = run_scan(manifest)
    assert errors == []
    assert len(points) == 3
    for p in points:
        assert p.e_vqe >= p.e_fci - 1e-9  # variational bound, exact mode
        assert p.error_mha == pytest.approx((p.e_vqe - p.e_fci) * 1000.0, abs=1e-12)
        assert p.n_pauli_terms > 0 and p.n_groups > 0
    text = scan_csv(points)
    assert parse_scan_csv(text) == points


def test_sampled_scan_csv_pinned():
    # a sampled scan's CSV pinned across code versions: any change to the
    # draws, the parity sums or their order moves the digest
    doc = h2_manifest_doc(
        [0.70, 0.78], ansatz="hardware", mode="sampled", shots=256,
        optimizer={"kind": "spsa", "max_iterations": 5, "seed": 0},
    )
    points, errors = run_scan(load_manifest(doc))
    assert errors == []
    digest = hashlib.sha256(scan_csv(points).encode()).hexdigest()
    assert digest == "c8652f781155e6a48e5c0cccb818933445c5628f5bb41f321aad45744ec1161a"


def test_sampled_uccsd_scan_csv_pinned():
    # a sampled UCCSD scan's CSV, H2 at two bond lengths and H3 at the
    # symmetric point, pinned across code versions: any change to a rotation,
    # a draw or the state the draws are made from moves the digest
    doc = h2_manifest_doc(
        [0.70, 0.78], mode="sampled", shots=256, restarts=2,
        optimizer={"kind": "spsa", "max_iterations": 5, "seed": 0},
    )
    doc["points"].append(h3_exchange_point("+0.00", 0.0))
    points, errors = run_scan(load_manifest(doc))
    assert errors == []
    digest = hashlib.sha256(scan_csv(points).encode()).hexdigest()
    assert digest == "94e2d0890faa5256453847ed4adb3407a275eea22aa8bf2a15f0a18e76451e1e"


def test_exact_scan_csv_pinned():
    # an exact-mode H3 scan's CSV (the h3-exchange benchmark's settings at three
    # points) pinned across code versions: any change to a circuit run, an
    # expectation or a simplex step moves the digest
    doc = {
        "label": "h3-exact", "ansatz": "uccsd", "mode": "exact",
        "optimizer": {"kind": "simplex", "max_iterations": 1000,
                      "convergence_threshold": 1e-7, "simplex_xtol": 1e-3},
        "seed": 5, "restarts": 2,
        "points": [h3_exchange_point(f"{s:+.2f}", s) for s in (-1.0, 0.0, 1.0)],
    }
    points, errors = run_scan(load_manifest(doc))
    assert errors == []
    digest = hashlib.sha256(scan_csv(points).encode()).hexdigest()
    assert digest == "dcc051126c37d1ed5ab1124dae8f99c8104720285dfac83ad4acfee702f7aeb1"


def test_a_scan_builds_its_uccsd_circuit_and_sector_tables_once(monkeypatch):
    # three H3 points share one circuit and its one restriction to their sector;
    # their CSV is that of each point run alone on a circuit of its own
    doc = {
        "label": "h3", "ansatz": "uccsd", "mode": "exact",
        "optimizer": {"kind": "simplex", "max_iterations": 200}, "seed": 5, "restarts": 1,
        "points": [h3_exchange_point(f"{s:+.2f}", s) for s in (-1.0, 0.0, 1.0)],
    }
    manifest = load_manifest(doc)
    solo = []
    for point in manifest.points:
        ansatz._build_uccsd.cache_clear()
        solo += run_scan(replace(manifest, points=(point,)))[0]
    counts = {"builds": 0, "restricts": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ansatz, "_excitation_gates", counted("builds", ansatz._excitation_gates))
    monkeypatch.setattr(Circuit, "restrict", counted("restricts", Circuit.restrict))
    ansatz._build_uccsd.cache_clear()
    points, errors = run_scan(manifest)
    assert errors == [] and counts == {"builds": 1, "restricts": 1}
    assert scan_csv(points) == scan_csv(solo)


def test_scan_points_are_order_independent():
    doc_fwd = h2_manifest_doc([0.70, 0.78])
    doc_rev = h2_manifest_doc([0.78, 0.70])
    fwd, _ = run_scan(load_manifest(doc_fwd))
    rev, _ = run_scan(load_manifest(doc_rev))
    by_label_fwd = {p.geometry_label: p for p in fwd}
    by_label_rev = {p.geometry_label: p for p in rev}
    assert by_label_fwd == by_label_rev


def test_scan_single_point_matches_full_scan():
    full, _ = run_scan(load_manifest(h2_manifest_doc([0.70, 0.78])))
    solo, _ = run_scan(load_manifest(h2_manifest_doc([0.78])))
    assert {p.geometry_label: p for p in full}["0.780"] == solo[0]


def test_optimizer_seed_is_replaced_by_point_seed():
    # run_scan gives each point the seed derived from the top-level seed and
    # its label, so optimizer.seed alone does not change a scan
    def csv(optimizer_seed, seed=3):
        doc = h2_manifest_doc(
            [0.74], ansatz="hardware", mode="sampled", shots=256, seed=seed,
            optimizer={"kind": "spsa", "max_iterations": 5, "seed": optimizer_seed},
        )
        points, errors = run_scan(load_manifest(doc))
        assert errors == []
        return scan_csv(points)

    assert csv(0) == csv(12345)
    assert csv(0) != csv(0, seed=4)


def test_scan_records_per_point_failures(tmp_path):
    doc = h2_manifest_doc([0.74])
    doc["points"].append(
        {"label": "broken", "coordinate": 1.0, "fcidump": "does-not-exist.fcidump"}
    )
    manifest = load_manifest(doc, base_dir=str(tmp_path))
    points, errors = run_scan(manifest)
    assert len(points) == 1
    assert len(errors) == 1 and errors[0][0] == "broken"


def test_scan_all_points_failed_raises(tmp_path):
    doc = {
        "label": "bad",
        "points": [{"label": "x", "coordinate": 0.0, "fcidump": "missing.fcidump"}],
        "optimizer": dict(FAST_OPTIMIZER),
    }
    manifest = load_manifest(doc, base_dir=str(tmp_path))
    with pytest.raises(ManifestError):
        run_scan(manifest)


def test_scan_lets_programming_errors_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug inside the pipeline")

    monkeypatch.setattr(workflows, "run_single_point", broken)
    with pytest.raises(TypeError, match="bug inside"):
        run_scan(load_manifest(h2_manifest_doc([0.74])))


def test_manifest_rejects_duplicate_labels():
    doc = h2_manifest_doc([0.74, 0.74])
    with pytest.raises(ManifestError):
        load_manifest(doc)


def test_manifest_keys_left_out_keep_the_defaults():
    assert load_manifest({}) == ScanManifest()
    manifest = load_manifest({"reps": 2, "optimizer": {"max_iterations": 7}})
    assert manifest == ScanManifest(reps=2, optimizer=OptimizerConfig(max_iterations=7))


@pytest.mark.parametrize("settings, key", [
    ({"seed": "7"}, "seed"),
    ({"restarts": 1.5}, "restarts"),
    ({"shots": 0}, "shots"),
    ({"reps": True}, "reps"),
    ({"optimizer": {"kind": "spsa"}}, "optimizer"),
    ({"freeze": (0, 0)}, "freeze"),
], ids=["string-seed", "fractional-restarts", "zero-shots", "boolean-reps",
        "optimizer-not-a-config", "repeated-freeze"])
def test_library_built_manifest_is_checked(settings, key):
    with pytest.raises(ManifestError, match=key):
        ScanManifest(**settings)


@pytest.mark.parametrize("options", [{"max_iterations": "many"}, {"convergence_threshold": "x"}],
                         ids=["string-max-iterations", "string-threshold"])
def test_a_bad_optimizer_value_raises_manifest_error(options):
    # the first raised ShapeError and the second ManifestError
    with pytest.raises(ManifestError, match="bad optimizer value: " + next(iter(options))):
        load_manifest({"optimizer": options})


def test_scan_records_an_unknown_geometry_key_as_a_failed_point():
    doc = h2_manifest_doc([0.70, 0.74])
    doc["points"][0]["geometry"]["charg"] = 1
    points, errors = run_scan(load_manifest(doc))
    assert [p.geometry_label for p in points] == ["0.740"]
    assert errors == [("0.700", "ShapeError: malformed geometry: the geometry has unknown "
                                "keys ['charg']")]


def test_scan_point_checks_its_coordinate_and_fcidump_path():
    # a NaN coordinate built in Python was scanned and written to the CSV, which
    # fit then refused; a non-string path reached os.path.join as a TypeError
    geometry = h2_point("a", 0.74)["geometry"]
    with pytest.raises(ManifestError, match="point 'a' coordinate must be a finite number"):
        run_scan(ScanManifest(points=(ScanPoint("a", float("nan"), geometry=geometry),)))
    with pytest.raises(ManifestError, match="point 'a' fcidump must be a path string, got 5"):
        load_manifest({"points": [{"label": "a", "fcidump": 5}]})
    point = ScanPoint("a", np.int64(1), geometry=geometry)
    assert type(point.coordinate) is float and point.coordinate == 1.0


def test_point_seed_stable_under_label():
    assert point_seed(3, "0.74") == point_seed(3, "0.74")
    assert point_seed(3, "0.74") != point_seed(3, "0.75")


def test_odd_electron_h3_pipeline_single_point():
    point_doc = h3_exchange_point("mid", 0.0)
    point = ScanPoint("mid", 0.0, geometry=point_doc["geometry"])
    integrals = integrals_for_point(point)
    assert integrals.n_electrons == 3
    result = run_single_point(
        integrals,
        ansatz="uccsd",
        optimizer=OptimizerConfig(**FAST_OPTIMIZER),
        restarts=1,
    )
    assert result.n_qubits == 6
    assert result.vqe.final_energy >= result.e_fci - 1e-9
    assert result.vqe.final_energy - result.e_fci < 5e-3


def test_spsa_trace_has_larger_total_variation():
    """Median over seeds: the SPSA trace wiggles more than the simplex's."""
    from vqechem.ansatz import build_uccsd
    from vqechem.fermions import build_second_quantized, jordan_wigner
    from vqechem.optimize import exact_energy_objective, simplex_minimize, spsa_minimize

    point = h2_point("0.74", 0.74)
    integrals = integrals_for_point(ScanPoint("0.74", 0.74, geometry=point["geometry"]))
    hamiltonian = jordan_wigner(build_second_quantized(integrals))
    circuit = build_uccsd(4, {0, 1})
    objective = exact_energy_objective(hamiltonian, circuit)

    def total_variation(trace):
        return float(sum(abs(b - a) for a, b in zip(trace, trace[1:])))

    spsa_tv, simplex_tv = [], []
    for seed in range(10):
        theta0 = np.random.default_rng((7, seed)).normal(0.0, 0.05, 3)
        spsa = spsa_minimize(
            objective, theta0,
            OptimizerConfig(kind="spsa", max_iterations=150,
                            convergence_threshold=1e-6, seed=seed),
        )
        simplex = simplex_minimize(
            objective, theta0,
            OptimizerConfig(kind="simplex", max_iterations=600,
                            convergence_threshold=1e-9, seed=seed),
        )
        spsa_tv.append(total_variation(spsa.energy_trace))
        simplex_tv.append(total_variation(simplex.energy_trace))
    assert np.median(spsa_tv) > np.median(simplex_tv)


def test_trace_csv_shape():
    from vqechem.optimize import VqeResult

    result = VqeResult(-1.0, np.zeros(1), (-0.5, -1.0, -0.8), 9, True, "converged")
    text = trace_csv(result)
    lines = text.strip().splitlines()
    assert lines[0] == "iteration,energy,best_energy"
    assert lines[1] == "0,-0.5,-0.5"
    assert lines[3] == "2,-0.8,-1.0"


def test_single_row_trace():
    from vqechem.optimize import VqeResult

    result = VqeResult(-1.0, np.zeros(0), (-1.0,), 1, True, "no_parameters")
    assert len(trace_csv(result).strip().splitlines()) == 2


def test_pes_point_invariant_roundtrip():
    p = PesPoint("x", 1.0, -1.0, -1.001, 1.0, 10, 3)
    text = scan_csv([p])
    assert parse_scan_csv(text) == [p]
