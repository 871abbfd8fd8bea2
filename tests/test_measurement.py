import hashlib
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    chromatic_number,
    commutes_qubitwise,
    group_commuting_loop,
    group_probabilities,
    hamiltonian_from_term_dict,
    sampled_energy,
)
from vqechem import measurement
from vqechem.exceptions import ShapeError
from vqechem.measurement import (
    MeasurementGroup,
    estimate_energy_sampled,
    group_commuting,
    group_tables,
    grouping_report_csv,
)
from vqechem.paulis import PauliString, QubitHamiltonian
from vqechem.simulator import (
    MAX_QUBITS,
    Statevector,
    expectation,
    prepare_hf,
    sample_counts,
    seed_words,
    update_qubit,
)


def ham(n, letter_weights):
    coeffs = {}
    for letters, w in letter_weights.items():
        p = PauliString.from_letters(letters)
        coeffs[(p.x_mask, p.z_mask)] = w
    return hamiltonian_from_term_dict(n, coeffs)


def test_all_z_terms_form_one_group():
    h = ham(2, {"ZI": 0.3, "IZ": 0.2, "ZZ": 0.1})
    groups = group_commuting(h)
    assert len(groups) == 1
    assert set(groups[0].term_indices) == {0, 1, 2}
    assert groups[0].basis == "ZZ"


def test_conflicting_terms_split():
    h = ham(2, {"XX": 0.5, "ZZ": 0.5})
    groups = group_commuting(h)
    assert len(groups) == 2


def test_partition_and_within_group_commutation(h2_hamiltonian_074):
    groups = group_commuting(h2_hamiltonian_074)
    covered = sorted(i for g in groups for i in g.term_indices)
    assert covered == list(range(h2_hamiltonian_074.n_terms))
    strings = [p for _, p in h2_hamiltonian_074.terms]
    for group in groups:
        for i in group.term_indices:
            for j in group.term_indices:
                assert commutes_qubitwise(strings[i], strings[j])
            # basis letter covers each non-identity letter
            letters = strings[i].to_letters()
            for q, letter in enumerate(letters):
                if letter != "I":
                    assert group.basis[q] == letter


def test_h2_group_count_against_exact_coloring(h2_hamiltonian_074):
    strings = [p for _, p in h2_hamiltonian_074.terms]
    n = len(strings)
    adjacency = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if not commutes_qubitwise(strings[i], strings[j]):
                adjacency[i].add(j)
                adjacency[j].add(i)
    lower = chromatic_number(adjacency)
    groups = group_commuting(h2_hamiltonian_074)
    assert lower <= len(groups) <= n
    # greedy largest-degree-first is optimal on this instance
    assert len(groups) == lower == 5


def test_empty_hamiltonian_rejected():
    with pytest.raises(ShapeError):
        group_commuting(QubitHamiltonian(2, ()))


def test_grouping_report_csv(h2_hamiltonian_074):
    groups = group_commuting(h2_hamiltonian_074)
    text = grouping_report_csv(groups)
    lines = text.strip().splitlines()
    assert lines[0] == "group_id,n_terms,basis_string"
    assert len(lines) == len(groups) + 1
    assert sum(int(line.split(",")[1]) for line in lines[1:]) == h2_hamiltonian_074.n_terms


def test_eigenstate_measured_exactly():
    h = ham(2, {"ZI": 0.25, "ZZ": -0.5})
    state = prepare_hf(2, {0})
    groups = group_commuting(h)
    estimate = estimate_energy_sampled(state, h, groups, shots_per_group=64, seed=0)
    assert estimate.standard_error == 0.0
    assert estimate.energy == pytest.approx(expectation(state, h), abs=1e-12)


def test_identity_only_hamiltonian():
    h = ham(2, {"II": -1.25})
    state = prepare_hf(2, set())
    groups = group_commuting(h)
    estimate = estimate_energy_sampled(state, h, groups, shots_per_group=10, seed=0)
    assert estimate.energy == -1.25
    assert estimate.standard_error == 0.0


def test_hf_h2_estimate_within_five_sigma(h2_hamiltonian_074):
    state = prepare_hf(4, {0, 1})
    groups = group_commuting(h2_hamiltonian_074)
    estimate = estimate_energy_sampled(
        state, h2_hamiltonian_074, groups, shots_per_group=100_000, seed=11
    )
    exact = expectation(state, h2_hamiltonian_074)
    assert abs(estimate.energy - exact) <= 5 * max(estimate.standard_error, 1e-12)
    assert estimate.shots_used == 100_000 * sum(
        1 for g in groups
        if any(h2_hamiltonian_074.terms[i][1].support_mask != 0 for i in g.term_indices)
    )


def superposition_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return Statevector(n, amps / np.linalg.norm(amps))


def test_stderr_scales_inverse_sqrt_shots(h2_hamiltonian_074):
    state = superposition_state(4, 3)
    groups = group_commuting(h2_hamiltonian_074)
    errs = {}
    for shots in (100, 1000, 10000):
        estimate = estimate_energy_sampled(
            state, h2_hamiltonian_074, groups, shots_per_group=shots, seed=21
        )
        errs[shots] = estimate.standard_error
    for a, b in ((100, 1000), (1000, 10000), (100, 10000)):
        observed = errs[a] / errs[b]
        ideal = np.sqrt(b / a)
        assert ideal / 1.5 < observed < ideal * 1.5


def test_grouped_equals_ungrouped_in_expectation(h2_hamiltonian_074):
    """Paired-seed comparison of grouped and singleton estimators."""
    state = superposition_state(4, 8)
    h = h2_hamiltonian_074
    groups = group_commuting(h)
    strings = [p for _, p in h.terms]
    singletons = []
    for i, p in enumerate(strings):
        letters = p.to_letters().replace("I", "")  # basis from the string itself
        basis = "".join(
            p.to_letters()[q] if p.to_letters()[q] != "I" else "I"
            for q in range(h.n_qubits)
        )
        singletons.append(MeasurementGroup((i,), basis))

    diffs = []
    shots = 2000
    for rep in range(40):
        grouped = estimate_energy_sampled(state, h, groups, shots, seed=1000 + rep)
        single = estimate_energy_sampled(state, h, singletons, shots, seed=5000 + rep)
        diffs.append(grouped.energy - single.energy)
    diffs = np.asarray(diffs)
    stderr_of_mean = diffs.std(ddof=1) / np.sqrt(len(diffs))
    assert abs(diffs.mean()) < 5 * stderr_of_mean


def test_sample_and_estimator_share_one_draw():
    # one all-Z group is measured in the computational basis, so the
    # estimator's draw for group 0 is numpy's default_rng(seed) multinomial
    h = ham(3, {"ZII": 0.5, "IZI": -0.3, "IIZ": 0.7, "ZZZ": 0.2})
    groups = group_commuting(h)
    assert [g.basis for g in groups] == ["ZZZ"]
    rng = np.random.default_rng(21)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    state = Statevector(3, amps / np.linalg.norm(amps))
    shots, seed = 500, 77
    p = state.probabilities()
    counts = np.random.default_rng(seed).multinomial(shots, p / p.sum())
    energy = 0.0
    for weight, pauli in h.terms:
        signs = [(-1) ** (b & pauli.support_mask).bit_count() for b in range(8)]
        energy += weight * (counts @ signs) / shots
    estimate = estimate_energy_sampled(state, h, groups, shots, seed)
    assert estimate.shots_used == shots
    assert estimate.energy == pytest.approx(energy, abs=1e-12)
    other_seed = estimate_energy_sampled(state, h, groups, shots, seed + 1)
    assert abs(other_seed.energy - energy) > 1e-6


def test_group_partition_validation(h2_hamiltonian_074):
    state = prepare_hf(4, {0, 1})
    bad_groups = [MeasurementGroup((0,), "I" * 4)]
    with pytest.raises(ShapeError):
        estimate_energy_sampled(state, h2_hamiltonian_074, bad_groups, 10, 0)


def h2s_fixture_hamiltonian(fixture_dir):
    from vqechem.fcidump import parse_fcidump
    from vqechem.fermions import build_second_quantized, jordan_wigner

    path = os.path.join(fixture_dir, "h2s_sto3g_nonrel_eq.fcidump")
    with open(path, encoding="utf-8") as fh:
        return jordan_wigner(build_second_quantized(parse_fcidump(fh.read())))


H2S_FIXTURE_GROUPING_DIGEST = "91460fecf494216eaa8e34639682c96d5b8afed442e3e0d03d2eadbe4a14cb30"


def grouping_digest(groups):
    """sha256 of every group's members and basis letters."""
    doc = json.dumps([[list(g.term_indices), g.basis] for g in groups])
    return hashlib.sha256(doc.encode()).hexdigest()


def test_full_h2s_fixture_groups_pinned(fixture_dir):
    # greedy coloring of the 12-qubit fixture: 1819 terms in 502 groups; the
    # digest pins every group's members and basis letters
    h = h2s_fixture_hamiltonian(fixture_dir)
    groups = group_commuting(h)
    assert (h.n_terms, len(groups)) == (1819, 502)
    assert groups[0].basis == "XXYZZZZZZZZY"
    assert groups[-1] == MeasurementGroup((1077,), "IYXXYIIIIIII")
    assert grouping_digest(groups) == H2S_FIXTURE_GROUPING_DIGEST


def test_full_h2s_fixture_grouping_matches_the_coloring_loop(fixture_dir):
    h = h2s_fixture_hamiltonian(fixture_dir)
    assert group_commuting(h) == group_commuting_loop(h)


def test_full_h2s_fixture_grouping_across_row_blocks(fixture_dir, monkeypatch):
    # 12-qubit masks are uint16: 18 rows per block, so 1819 rows fill 101
    # blocks and leave 1 row for the last
    h = h2s_fixture_hamiltonian(fixture_dir)
    monkeypatch.setattr(measurement, "BLOCK_BYTES", 18 * 2 * h.n_terms)
    groups = group_commuting(h)
    assert groups == group_commuting_loop(h)
    assert grouping_digest(groups) == H2S_FIXTURE_GROUPING_DIGEST


def test_full_h2s_fixture_grouping_peaks_below_8_mib(fixture_dir):
    # the conflict and blocked-color matrices are 1819² bytes (3.2 MiB) each
    import tracemalloc

    h = h2s_fixture_hamiltonian(fixture_dir)
    tracemalloc.start()
    try:
        group_commuting(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


@settings(max_examples=60)
@given(st.integers(1, 8), st.integers(1, 80), st.integers(0, 2**32 - 1))
def test_grouping_matches_the_coloring_loop(n_qubits, n_strings, seed):
    # random strings, the identity always among them
    rng = np.random.default_rng(seed)
    coeffs = {(0, 0): float(rng.normal())}
    while len(coeffs) < min(n_strings, 4 ** n_qubits):
        key = (int(rng.integers(0, 1 << n_qubits)), int(rng.integers(0, 1 << n_qubits)))
        coeffs[key] = float(rng.uniform(0.1, 1.0))
    h = hamiltonian_from_term_dict(n_qubits, coeffs)
    assert group_commuting(h) == group_commuting_loop(h)


@given(st.integers(0, 2**32 - 1))
def test_tables_built_once_match_per_call_construction(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    coeffs = {(0, 0): float(rng.normal())}
    while len(coeffs) < min(int(rng.integers(2, 16)), 4**n):
        coeffs[(int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))] = float(rng.normal())
    h = hamiltonian_from_term_dict(n, coeffs)
    state = superposition_state(n, seed)
    groups = group_commuting(h)
    if rng.integers(0, 2):
        # measure the identity term alone, in a basis of random letters
        identity = next(i for i, (_, p) in enumerate(h.terms) if p.support_mask == 0)
        groups = [MeasurementGroup(tuple(i for i in g.term_indices if i != identity), g.basis)
                  for g in groups]
        groups = [g for g in groups if g.term_indices]
        basis = "".join(rng.choice(list("IXYZ"), size=n))
        groups.insert(int(rng.integers(0, len(groups) + 1)), MeasurementGroup((identity,), basis))
    tables = group_tables(h, groups)
    shots = int(rng.integers(1, 300))
    for call_seed in (seed, seed + 100003):
        once = estimate_energy_sampled(state, h, tables, shots, call_seed)
        per_call = estimate_energy_sampled(state, h, groups, shots, call_seed)
        assert once == per_call  # bit-identical, standard error included
        assert once == sampled_energy(state, h, groups, shots, call_seed)


def test_blocks_of_groups_match_per_group_oracle_at_12_qubits(fixture_dir):
    # 502 groups at 4 per block: the estimate crosses 125 block boundaries
    h = h2s_fixture_hamiltonian(fixture_dir)
    groups = group_commuting(h)
    tables = group_tables(h, groups)
    assert len(tables.blocks) == 126
    state = superposition_state(12, 2024)
    estimate = estimate_energy_sampled(state, h, tables, 1024, 17)
    assert estimate == sampled_energy(state, h, groups, 1024, 17)


def test_one_group_blocks_draw_from_seeds_hashed_once_per_estimate(monkeypatch):
    # 2**14 amplitudes leave room for one group per block, so every block
    # draws one row; all the groups' seeds are hashed in one call
    n, rng, coeffs = 14, np.random.default_rng(5), {}
    while len(coeffs) < 12:
        coeffs[(int(rng.integers(1, 1 << n)), int(rng.integers(0, 1 << n)))] = float(rng.normal())
    h = hamiltonian_from_term_dict(n, coeffs)
    groups = group_commuting(h)
    tables = group_tables(h, groups)
    assert len(tables.blocks) == len(groups) > 1
    drawn, hashed = [], []
    sample_counts, seed_words = measurement.sample_counts, measurement.seed_words

    def recorded_draw(probabilities, n_shots, words):
        counts = sample_counts(probabilities, n_shots, words)
        drawn.append((probabilities[0].copy(), counts[0]))
        return counts

    def recorded_hash(seeds):
        hashed.append(len(seeds))
        return seed_words(seeds)

    monkeypatch.setattr(measurement, "sample_counts", recorded_draw)
    monkeypatch.setattr(measurement, "seed_words", recorded_hash)
    state, seed = superposition_state(n, 3), 41
    estimate = estimate_energy_sampled(state, h, tables, 256, seed)
    assert hashed == [len(groups)]
    for (gid,), (p, counts) in zip((block.group_ids for block in tables.blocks), drawn,
                                   strict=True):
        assert np.array_equal(counts, np.random.default_rng(seed + gid).multinomial(
            256, p / p.sum()))
    assert estimate == sampled_energy(state, h, groups, 256, seed)


@pytest.mark.parametrize("shots", [2.5, 0, True, "10", None])
def test_shots_must_be_a_positive_integer(shots):
    h = ham(2, {"ZI": 0.3, "XX": 0.2})
    state = superposition_state(2, 1)
    with pytest.raises(ShapeError, match="shots"):
        estimate_energy_sampled(state, h, group_commuting(h), shots, 0)


def test_integer_like_shots_accepted():
    h = ham(2, {"ZI": 0.3, "XX": 0.2})
    state = superposition_state(2, 1)
    groups = group_commuting(h)
    assert estimate_energy_sampled(state, h, groups, np.int64(64), 5) == (
        estimate_energy_sampled(state, h, groups, 64, 5))


@pytest.mark.parametrize("seed", [-1, 1.0, 2**63])
def test_seed_must_be_a_nonnegative_integer(seed):
    h = ham(2, {"ZI": 0.3, "XX": 0.2})
    state = superposition_state(2, 1)
    with pytest.raises(ShapeError, match="seed"):
        estimate_energy_sampled(state, h, group_commuting(h), 16, seed)


def test_largest_seed_draws_every_group_past_2_63():
    # group seeds seed + gid run past 2**63 and stay below 2**64
    h = ham(3, {"ZII": 0.5, "XXI": -0.3, "IYY": 0.7, "XIZ": 0.2, "III": 0.1})
    groups = group_commuting(h)
    assert len(groups) == 2
    state = superposition_state(3, 8)
    seed = 2**63 - 1
    assert estimate_energy_sampled(state, h, groups, 300, seed) == (
        sampled_energy(state, h, groups, 300, seed))
    p = state.probabilities()
    for group_seed in (seed, seed + 1):  # the second is 2**63
        assert np.array_equal(sample_counts(p, 300, seed_words(group_seed)),
                              np.random.default_rng(group_seed).multinomial(300, p / p.sum()))


@pytest.mark.parametrize(
    "letters, basis",
    [("ZI", "Z"), ("XX", "ZZ"), ("XI", "XZ "), ("ZZ", "zz"), ("YZ", "XZ"), ("IX", "XI")],
    ids=["too-short", "wrong-letters", "not-a-letter", "lower-case", "one-wrong", "shifted"],
)
def test_basis_must_measure_its_terms(letters, basis):
    h = ham(2, {letters: 0.5})
    with pytest.raises(ShapeError, match="basis"):
        group_tables(h, [MeasurementGroup((0,), basis)])


def test_basis_letters_off_the_support_are_free():
    h = ham(2, {"ZI": 0.5, "II": -0.25})
    z, identity = ([p.to_letters() for _, p in h.terms].index(s) for s in ("ZI", "II"))
    groups = [MeasurementGroup((z,), "ZX"), MeasurementGroup((identity,), "YY")]
    state = superposition_state(2, 4)
    estimate = estimate_energy_sampled(state, h, groups, 200, 3)
    assert estimate == sampled_energy(state, h, groups, 200, 3)


def test_sampling_tables_refused_above_the_allocation_limit():
    # one Z term per qubit of the largest register: a single stack row of
    # 2**24 amplitudes with its workspace already passes 1 GiB
    import tracemalloc

    n = MAX_QUBITS
    h = hamiltonian_from_term_dict(n, {(0, 1 << q): 1.0 for q in range(n)})
    groups = group_commuting(h)
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError, match="GiB"):
            group_tables(h, groups)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_conflict_matrix_refused_above_the_allocation_cap(monkeypatch):
    from vqechem import paulis

    # 6 strings on 3 qubits: the 6 x 6 bool conflict and blocked-color
    # matrices, and two (rows x 6) uint8 mask temporaries: 6 rows per block
    # by default, 2 when a block holds 12 bytes
    h = ham(3, {"XII": 1.0, "ZII": 0.5, "IYI": 0.3, "IIZ": 0.2, "XYZ": 0.1, "ZZZ": 0.4})
    for block_bytes, rows in ((measurement.BLOCK_BYTES, 6), (12, 2)):
        monkeypatch.setattr(measurement, "BLOCK_BYTES", block_bytes)
        needed = 2 * 6 ** 2 + 2 * rows * 6
        monkeypatch.setattr(paulis, "MAX_ALLOCATION_BYTES", needed)
        assert sorted(i for g in group_commuting(h) for i in g.term_indices) == list(range(6))
        monkeypatch.setattr(paulis, "MAX_ALLOCATION_BYTES", needed - 1)
        with pytest.raises(ShapeError, match="conflict matrix of 6 strings"):
            group_commuting(h)


def block_probabilities(state, block):
    """A block's outcome probabilities, one stack row per group, as the estimator rotates them."""
    work = np.tile(state.amplitudes, (len(block.group_ids), 1))
    for update in block.updates:
        update_qubit(work, *update)
    return np.abs(work) ** 2


@st.composite
def distinct_bases(draw):
    n = draw(st.integers(1, 7))
    return draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=12,
                         unique=True))


@settings(max_examples=60)
@given(distinct_bases(), st.integers(0, 2**32 - 1))
@example(["XZ", "ZZ", "YX", "IY"], 0)  # qubit 0 rotates rows 0 and 2: not a slice
def test_block_probabilities_match_the_per_group_oracle(bases, seed):
    # one term per basis, measured in exactly its own letters
    h = ham(len(bases[0]), {b: 0.1 * (k + 1) for k, b in enumerate(bases)})
    index = {p.to_letters(): i for i, (_, p) in enumerate(h.terms)}
    groups = [MeasurementGroup((index[b],), b) for b in bases]
    state = superposition_state(h.n_qubits, seed)
    tables = group_tables(h, groups)
    rows = 0
    for block in tables.blocks:
        probabilities = block_probabilities(state, block)
        for row, gid in enumerate(block.group_ids):
            assert np.array_equal(probabilities[row], group_probabilities(state, bases[gid]))
        rows += len(block.group_ids)
    assert rows == sum(set(b) != {"I"} for b in bases)
    assert estimate_energy_sampled(state, h, tables, 64, seed) == (
        sampled_energy(state, h, groups, 64, seed))


def test_each_block_rotates_each_qubit_once(fixture_dir):
    from vqechem.fermions import build_second_quantized, jordan_wigner
    from vqechem.workflows import h3_exchange_point, integrals_from_geometry

    integrals, _ = integrals_from_geometry(h3_exchange_point("mid", 0.0)["geometry"])
    h3 = jordan_wigner(build_second_quantized(integrals))
    h3_tables = group_tables(h3, group_commuting(h3))
    # 17 groups in one block: one update per qubit, not one per (qubit, letter)
    assert [len(b.group_ids) for b in h3_tables.blocks] == [17]
    assert [q for q, _, _ in h3_tables.blocks[0].updates] == list(range(6))
    h2s = h2s_fixture_hamiltonian(fixture_dir)
    for block in h3_tables.blocks + group_tables(h2s, group_commuting(h2s)).blocks:
        qubits = [q for q, _, _ in block.updates]
        assert qubits == sorted(set(qubits))
        for _, rows, matrices in block.updates:
            assert matrices.shape == (np.arange(len(block.group_ids))[rows].size, 1, 2, 2)


def test_estimator_refuses_a_sector_state():
    h = ham(4, {"ZIII": 0.5, "XXII": 0.2})
    state = Statevector(4, np.full(4, 0.5), states=np.array([3, 5, 6, 9]))
    with pytest.raises(ShapeError, match="sector state"):
        estimate_energy_sampled(state, h, group_commuting(h), 16, 0)


@pytest.mark.parametrize("amplitudes", [np.zeros(4), np.array([0.5, np.nan, 0.5, 0.5])],
                         ids=["zero", "nan"])
def test_samplers_refuse_a_zero_or_nan_state(amplitudes):
    h = ham(2, {"ZI": 0.3, "XX": 0.2})
    state = Statevector(2, amplitudes.astype(complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ShapeError, match="norm"):
            estimate_energy_sampled(state, h, group_commuting(h), 16, 0)
