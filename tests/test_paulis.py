import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oracles import (
    apply_x_mask_by_x_mask,
    commutes_qubitwise,
    group_commuting_blocked,
    hamiltonian_from_term_dict,
    hamiltonian_matrix,
    pauli_matrix,
    pauli_multiply,
)
from vqechem.exceptions import ShapeError
from vqechem.fcidump import parse_fcidump
from vqechem.fermions import build_second_quantized, jordan_wigner
from vqechem.measurement import group_commuting
from vqechem.paulis import (
    PauliString,
    QubitHamiltonian,
    _bit_parity,
    sign_table,
)
from vqechem.simulator import sector_states


def P(letters):
    return PauliString.from_letters(letters)


def test_letter_roundtrip():
    for letters in ("I", "XYZ", "IZXI", "YYYY"):
        assert P(letters).to_letters() == letters


def test_identity_string_masks():
    assert P("III") == PauliString(3, 0, 0)
    assert P("III").support_mask == 0


def test_mask_out_of_range():
    with pytest.raises(ShapeError):
        PauliString(1, x_mask=2, z_mask=0)


def test_multiply_xx_identity():
    phase, product = pauli_multiply(P("X"), P("X"))
    assert phase == 1 and product.support_mask == 0


def test_multiply_xy_gives_iz():
    phase, product = pauli_multiply(P("X"), P("Y"))
    assert phase == 1j and product == P("Z")


def test_multiply_size_mismatch():
    with pytest.raises(ShapeError):
        pauli_multiply(P("X"), P("XX"))


@pytest.mark.parametrize("seed", range(8))
def test_multiply_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    n = 6
    a = PauliString(n, int(rng.integers(0, 64)), int(rng.integers(0, 64)))
    b = PauliString(n, int(rng.integers(0, 64)), int(rng.integers(0, 64)))
    phase, product = pauli_multiply(a, b)
    dense = pauli_matrix(a.to_letters()) @ pauli_matrix(b.to_letters())
    assert np.allclose(dense, phase * pauli_matrix(product.to_letters()), atol=1e-12)


def test_multiply_associative_and_phase_group():
    rng = np.random.default_rng(7)
    phases = {1, -1, 1j, -1j}
    for _ in range(30):
        a, b, c = (
            PauliString(4, int(rng.integers(0, 16)), int(rng.integers(0, 16)))
            for _ in range(3)
        )
        ph_ab, ab = pauli_multiply(a, b)
        ph1, left = pauli_multiply(ab, c)
        ph_bc, bc = pauli_multiply(b, c)
        ph2, right = pauli_multiply(a, bc)
        assert left == right
        assert ph_ab * ph1 == ph_bc * ph2
        assert ph_ab in phases and ph1 in phases


def test_commutes_qubitwise_examples():
    assert commutes_qubitwise(P("ZI"), P("ZZ"))
    # globally commuting but not qubit-wise
    assert not commutes_qubitwise(P("XX"), P("ZZ"))
    dense_comm = pauli_matrix("XX") @ pauli_matrix("ZZ") - pauli_matrix("ZZ") @ pauli_matrix("XX")
    assert np.allclose(dense_comm, 0)


@pytest.mark.parametrize("seed", range(20))
def test_qubitwise_implies_matrix_commutation(seed):
    rng = np.random.default_rng(100 + seed)
    n = 5
    a = PauliString(n, int(rng.integers(0, 32)), int(rng.integers(0, 32)))
    b = PauliString(n, int(rng.integers(0, 32)), int(rng.integers(0, 32)))
    if commutes_qubitwise(a, b):
        ma, mb = pauli_matrix(a.to_letters()), pauli_matrix(b.to_letters())
        assert np.allclose(ma @ mb, mb @ ma, atol=1e-12)


def test_hamiltonian_merges_and_prunes():
    h = hamiltonian_from_term_dict(
        2,
        {
            (P("XX").x_mask, P("XX").z_mask): 0.25,
            (0, 0): 1e-15,  # below prune threshold
        },
    )
    assert h.n_terms == 1
    assert h.terms[0][0] == 0.25


def test_hamiltonian_rejects_duplicates():
    with pytest.raises(ShapeError):
        QubitHamiltonian(1, ((0.5, P("X")), (0.25, P("X"))))


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
def test_hamiltonian_rejects_non_finite_weights(weight):
    # abs(nan) >= threshold is False: pruning must not drop a NaN silently
    with pytest.raises(ShapeError, match="not finite"):
        QubitHamiltonian(1, ((weight, P("Z")),))
    with pytest.raises(ShapeError, match="not finite"):
        hamiltonian_from_term_dict(1, {(0, 0): -1.5, (0, 1): weight})


@given(st.integers(1, 20).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)),
    unique=True, max_size=40))))
def test_terms_sorted_by_letter_string(case):
    n, keys = case
    h = hamiltonian_from_term_dict(n, {key: 1.0 + i for i, key in enumerate(keys)})
    assert [(p.x_mask, p.z_mask) for _, p in h.terms] == sorted(
        keys, key=lambda key: PauliString(n, *key).to_letters())


@st.composite
def pauli_sums(draw):
    """(n, {(x_mask, z_mask): weight}) on 1-24 qubits; some weights fall below the
    prune threshold, so a sum may be empty after pruning."""
    n = draw(st.integers(1, 24))
    mask = st.integers(0, (1 << n) - 1)
    keys = draw(st.one_of(st.just([(0, 0)]), st.lists(st.tuples(mask, mask), min_size=1,
                                                         max_size=1),
                          st.lists(st.tuples(mask, mask), unique=True, max_size=40)))
    weight = st.one_of(st.sampled_from([0.0, 1e-13, -9e-13]),
                       st.floats(-2.0, 2.0).filter(lambda w: abs(w) >= 1e-12))
    return n, dict(zip(keys, draw(st.lists(weight, min_size=len(keys), max_size=len(keys)))))


@given(pauli_sums())
@example((3, {}))
@example((2, {(0, 0): 1e-13, (3, 1): 0.0}))
@example((5, {(0, 0): -0.75}))
@example((24, {(1, 1 << 23): 1.5}))
def test_array_form_matches_object_path(case):
    # the arrays hold the object path's strings in order, bit for bit, and
    # grouping them gives the object path's groups
    n, coeffs = case
    keys = np.array(list(coeffs), dtype=np.int64).reshape(-1, 2)
    h = QubitHamiltonian.from_arrays(n, keys[:, 0], keys[:, 1], list(coeffs.values()))
    want = hamiltonian_from_term_dict(n, coeffs)
    assert [(p.x_mask, p.z_mask) for _, p in want.terms] == list(zip(h.x.tolist(), h.z.tolist()))
    assert np.array_equal(np.array([w for w, _ in want.terms], dtype=float), h.weights)
    assert h == want and h.terms == want.terms
    if h.n_terms:
        assert group_commuting(h) == group_commuting_blocked(want)
    else:
        with pytest.raises(ShapeError, match="empty"):
            group_commuting(h)


@pytest.mark.parametrize("x, z, weights, match", [
    ([1, 1], [0, 0], [0.5, 0.25], "duplicate Pauli string X"),
    ([2], [0], [1.0], "do not fit in 1 qubits"),
    ([0], [-1], [1.0], "do not fit in 1 qubits"),
    ([0, 1], [1, 0], [1.0, float("nan")], "not finite"),
    ([0], [1], [float("-inf")], "not finite"),
    ([0, 1], [1], [1.0, 2.0], "not one length"),
    ([[0]], [[1]], [[1.0]], "not one length"),
])
def test_from_arrays_refusals(x, z, weights, match):
    with pytest.raises(ShapeError, match=match):
        QubitHamiltonian.from_arrays(1, x, z, weights)


def test_constructor_refusals():
    with pytest.raises(ShapeError, match="below the prune threshold"):
        QubitHamiltonian(1, ((1e-13, P("Z")),))
    with pytest.raises(ShapeError, match="duplicate Pauli string ZX"):
        QubitHamiltonian(2, ((0.5, P("ZX")), (1.0, P("XZ")), (0.25, P("ZX"))))
    with pytest.raises(ShapeError, match="qubit count differs"):
        QubitHamiltonian(2, ((1.0, P("Z")),))
    with pytest.raises(ShapeError, match="0..62 qubits"):
        QubitHamiltonian.from_arrays(63, [0], [1], [1.0])


@given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=64))
def test_bit_parity_matches_popcount(values):
    parity = _bit_parity(np.array(values, dtype=np.uint32))
    assert parity.tolist() == [bin(v).count("1") % 2 for v in values]


def test_pauli_action_matches_dense():
    # one string acts as the one-term compiled operator
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = 5
        p = PauliString(n, int(rng.integers(0, 32)), int(rng.integers(0, 32)))
        v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        action = QubitHamiltonian(n, ((1.0, p),)).compile().apply(v)
        assert np.allclose(action, pauli_matrix(p.to_letters()) @ v, atol=1e-12)


@given(st.lists(st.integers(0, 31), min_size=1, max_size=8))
def test_sign_table_matches_popcount(masks):
    table = sign_table(masks, np.arange(32))
    assert table.shape == (len(masks), 32)
    for row, mask in zip(table, masks):
        assert row.tolist() == [(-1) ** bin(b & mask).count("1") for b in range(32)]


@st.composite
def hamiltonians(draw, max_qubits=5, max_strings=12, real=False):
    """Random Pauli sums of up to ``max_qubits`` qubits, always with a Y letter, or
    with no string of an odd number of Y letters when ``real``."""
    n = draw(st.integers(1, max_qubits))
    masks = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
    keys = draw(st.lists(masks, min_size=1, max_size=max_strings, unique=True))
    if real:
        keys = [(x, z) for x, z in keys if bin(x & z).count("1") % 2 == 0] or [(0, 0)]
    else:
        q = draw(st.integers(0, n - 1))
        keys.append((1 << q, 1 << q))  # Y on qubit q
    weights = draw(st.lists(st.floats(-2.0, 2.0).filter(lambda w: abs(w) > 1e-3),
                            min_size=len(keys), max_size=len(keys)))
    return hamiltonian_from_term_dict(n, dict(zip(keys, weights)))


@given(hamiltonians(), st.integers(0, 2**32 - 1))
def test_compiled_operator_matches_kronecker_oracle(h, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << h.n_qubits
    dense = hamiltonian_matrix(h)
    op = h.compile()
    assert len(np.unique(op.targets ^ op.sources)) == len({p.x_mask for _, p in h.terms})
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    assert np.abs(op.apply(v) - dense @ v).max() < 1e-12
    assert abs(op.expectation(v) - np.vdot(v, dense @ v)) < 1e-12
    assert np.abs(op.dense() - dense).max() < 1e-12


@given(hamiltonians(), st.integers(0, 2**32 - 1))
def test_compile_on_states_is_the_projected_submatrix(h, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << h.n_qubits
    inside = rng.random(dim) < 0.5
    if not inside.any():
        inside[int(rng.integers(dim))] = True
    states = np.flatnonzero(inside)
    block = h.compile(states)
    assert block.dim == states.size
    matrix = hamiltonian_matrix(h)
    expected = matrix[np.ix_(states, states)]
    assert np.abs(block.dense() - expected).max() < 1e-12
    v = rng.standard_normal(states.size) + 1j * rng.standard_normal(states.size)
    assert np.abs(block.apply(v) - expected @ v).max() < 1e-12
    # the largest entry dropped for leaving the states
    leaving = np.abs(matrix[np.ix_(np.flatnonzero(~inside), states)]).max(initial=0.0)
    assert abs(block.leak - leaving) < 1e-12
    assert h.compile().leak == 0.0


@given(st.data(), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_apply_sums_each_target_x_mask_by_x_mask(data, real, complex_vector, seed):
    # on at most 6 qubits, so at most 64 x-masks, on the register or on a random
    # subset of its states that cells leak from: bit for bit the row-by-row loop,
    # 0 and then each x-mask's product in ascending order, so a regrouped
    # (pairwise or blocked) sum fails it
    h = data.draw(hamiltonians(max_qubits=6, max_strings=40, real=real))
    states = np.arange(1 << h.n_qubits)
    if data.draw(st.booleans()):
        states = np.array(sorted(data.draw(st.sets(st.sampled_from(states), min_size=1))))
    op = h.compile(None if len(states) == 1 << h.n_qubits else states)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(op.dim)
    if complex_vector:
        v = v + 1j * rng.standard_normal(op.dim)
    expected = apply_x_mask_by_x_mask(op, states, v)
    out = op.apply(v)
    assert out.dtype == expected.dtype
    assert np.array_equal(out, expected)


def random_form(n, n_strings, real, seed):
    """``n_strings`` random Pauli strings on ``n`` qubits, without Y letters when ``real``."""
    rng = np.random.default_rng(seed)
    x, z = rng.integers(0, 1 << n, (2, n_strings))
    z = z & ~x if real else z
    keys = dict.fromkeys(zip(x.tolist(), z.tolist()))
    return QubitHamiltonian.from_arrays(n, *np.array(list(keys)).T,
                                        rng.uniform(0.1, 1.0, len(keys)))


def test_compile_peaks_at_or_below_compiled_bytes(fixture_dir):
    # real and complex forms, on the register and on a sector; the random ones
    # store every cell of the register, the H2S fixture about a third of them.
    # In the last form 40 Z strings share x-mask 0, so the other 200 x-masks,
    # one string each, compile in runs of 40 rows
    with open(os.path.join(fixture_dir, "h2s_sto3g_nonrel_eq.fcidump"), encoding="utf-8") as fh:
        h2s = jordan_wigner(build_second_quantized(parse_fcidump(fh.read())))
    forms = [random_form(8, 200, real, 5) for real in (True, False)]
    rng = np.random.default_rng(2)
    x = np.r_[np.zeros(40, dtype=int), rng.choice(np.arange(1, 256), 200, replace=False)]
    z = np.r_[np.arange(1, 41), rng.integers(0, 256, 200) & ~x[40:]]
    wide = QubitHamiltonian.from_arrays(8, x, z, rng.uniform(0.1, 1.0, 240))
    assert [h.dtype for h in forms + [h2s, wide]] == [np.float64, np.complex128] + [np.float64] * 2
    for h in forms + [h2s, wide]:
        for states in (None, sector_states(h.n_qubits, 0b1111)):
            h.compile(states)  # the rows are built once, on the first compile
            tracemalloc.start()
            try:
                op = h.compile(states)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= h.compiled_bytes(None if states is None else len(states))
            if states is None and h in forms:
                assert len(op.values) == len(h.x_masks()) << h.n_qubits


def test_hamiltonian_matrix_oracle_consistency(h2_hamiltonian_074):
    # the identity string's weight against the dense trace
    dense = hamiltonian_matrix(h2_hamiltonian_074)
    dim = dense.shape[0]
    h = h2_hamiltonian_074
    assert np.isclose(np.trace(dense).real / dim, h.weights[(h.x | h.z) == 0].sum())


def test_compile_refuses_above_the_allocation_cap(monkeypatch):
    from vqechem import paulis

    # x-masks 0 (ZI, IZ, ZZ) and 3 (XX, YY), real, each its own run of rows: per
    # register state, 16 + 8 B of entries per x-mask, 17 B per string of the
    # three-string row's sign table, 32 B of state indices and one row's
    # diagonal, and 26 + 8 B for the run's one row; no local map on the register,
    # and 4 KiB of array headers
    h = hamiltonian_from_term_dict(2, {(0, 1): 0.5, (0, 2): 0.25, (0, 3): -0.1,
                                       (3, 0): 0.2, (3, 3): 0.3})
    needed = ((24 * 2 + 17 * 3 + 32 + 34 * 1) << 2) + 4096
    monkeypatch.setattr(paulis, "MAX_ALLOCATION_BYTES", needed)
    op = h.compile()
    assert op.dim == 4 and np.unique(op.targets ^ op.sources).tolist() == [0, 3]
    monkeypatch.setattr(paulis, "MAX_ALLOCATION_BYTES", needed - 1)
    with pytest.raises(ShapeError, match="compiled form of 2 x-masks on 2 qubits"):
        h.compile()
