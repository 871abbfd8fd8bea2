import os

import numpy as np
import pytest

from conftest import h2_mo_integrals
from vqechem.exceptions import FcidumpError
from vqechem.fcidump import parse_fcidump, write_fcidump

MINIMAL = """ &FCI NORB=1,NELEC=2,MS2=0,
 &END
 0.5 1 1 1 1
 -1.0 1 1 0 0
 0.7 0 0 0 0
"""


def test_minimal_grammar():
    integrals = parse_fcidump(MINIMAL)
    assert integrals.n_spatial_orbitals == 1
    assert integrals.n_electrons == 2
    assert integrals.g[0, 0, 0, 0] == 0.5
    assert integrals.h[0, 0] == -1.0
    assert integrals.constant_energy == 0.7


def test_single_line_with_slash_separators():
    text = "&FCI NORB=1,NELEC=2,MS2=0 &END 0.5 1 1 1 1 / -1.0 1 1 0 0 / 0.7 0 0 0 0"
    integrals = parse_fcidump(text)
    assert integrals.g[0, 0, 0, 0] == 0.5
    assert integrals.h[0, 0] == -1.0
    assert integrals.constant_energy == 0.7


def test_roundtrip_h2_identity():
    integrals, _ = h2_mo_integrals(1.39)
    text = write_fcidump(integrals)
    again = parse_fcidump(text)
    assert again.n_spatial_orbitals == integrals.n_spatial_orbitals
    assert again.n_electrons == integrals.n_electrons
    assert abs(again.constant_energy - integrals.constant_energy) < 1e-12
    assert np.abs(again.h - integrals.h).max() < 1e-12
    assert np.abs(again.g - integrals.g).max() < 1e-12


def test_write_after_parse_is_stable():
    integrals, _ = h2_mo_integrals(1.39)
    text = write_fcidump(integrals)
    assert write_fcidump(parse_fcidump(text)) == text


@pytest.mark.parametrize(
    "stem",
    [
        "h2s_sto3g_nonrel_eq",
        "h2s_sto3g_nonrel_stretch",
        "h2s_sto3g_rel_eq",
        "h2s_sto3g_rel_stretch",
    ],
)
def test_h2s_fixtures_parse_and_roundtrip(fixture_dir, stem):
    with open(os.path.join(fixture_dir, stem + ".fcidump")) as fh:
        text = fh.read()
    integrals = parse_fcidump(text)
    assert integrals.n_spatial_orbitals == 6
    assert integrals.n_electrons == 8
    integrals.validate_two_body_symmetry()
    again = parse_fcidump(write_fcidump(integrals))
    assert np.abs(again.h - integrals.h).max() < 1e-12
    assert np.abs(again.g - integrals.g).max() < 1e-12
    assert abs(again.constant_energy - integrals.constant_energy) < 1e-12


def test_malformed_header_reports_line():
    with pytest.raises(FcidumpError) as err:
        parse_fcidump("&FCI NELEC=2,MS2=0\n&END\n")
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("nelec", [-2, 5])
def test_electron_count_outside_the_spin_orbitals_reports_line_1(nelec):
    # NORB=2 holds 0..4 electrons
    with pytest.raises(FcidumpError) as err:
        parse_fcidump(f" &FCI NORB=2,NELEC={nelec},MS2=0,\n &END\n 0.5 1 1 1 1\n")
    assert "line 1" in str(err.value) and "NELEC must be in 0..4" in str(err.value)


def test_missing_fci_marker():
    with pytest.raises(FcidumpError):
        parse_fcidump("NORB=1,NELEC=2\n&END\n")


def test_index_out_of_range():
    text = " &FCI NORB=1,NELEC=2,MS2=0,\n &END\n 0.5 2 1 1 1\n"
    with pytest.raises(FcidumpError) as err:
        parse_fcidump(text)
    assert "out of range" in str(err.value)


def test_non_real_value_token():
    text = " &FCI NORB=1,NELEC=2,MS2=0,\n &END\n (0.5,0.1) 1 1 1 1\n"
    with pytest.raises(FcidumpError) as err:
        parse_fcidump(text)
    assert "non-real" in str(err.value)


def test_non_integer_orbital_index_reports_its_line():
    text = " &FCI NORB=2,NELEC=2,MS2=0,\n &END\n 0.5 1 1 1 1\n 0.25 1 1.5 1 1\n"
    with pytest.raises(FcidumpError, match="line 4: non-integer orbital index"):
        parse_fcidump(text)


def test_body_token_count_not_a_multiple_of_5():
    text = " &FCI NORB=1,NELEC=2,MS2=0,\n &END\n 0.5 1 1 1 1\n -1.0 1 1 0\n"
    with pytest.raises(FcidumpError, match="line 4: body token count is not a multiple of 5"):
        parse_fcidump(text)


def test_one_body_pair_with_a_zero_index_rejected():
    text = " &FCI NORB=2,NELEC=2,MS2=0,\n &END\n 0.1 0 1 0 0\n"
    with pytest.raises(FcidumpError, match=r"line 3: bad one-body index pair \(0,1\)"):
        parse_fcidump(text)


def test_twenty_digit_index_reported_out_of_range_on_its_line():
    text = " &FCI NORB=2,NELEC=2,MS2=0,\n &END\n 0.5 1 1 1 1\n 0.5 12345678901234567890 1 1 1\n"
    with pytest.raises(FcidumpError,
                       match="line 4: orbital index 12345678901234567890 out of range 1..2"):
        parse_fcidump(text)


def test_integral_listed_twice_keeps_the_later_value_in_all_8_cells():
    # (21|32) and then (32|12): one integral in two of its 8 index orders
    text = " &FCI NORB=3,NELEC=2,MS2=0,\n &END\n 0.25 2 1 3 2\n 0.75 3 2 1 2\n"
    g = parse_fcidump(text).g
    cells = [(1, 0, 2, 1), (0, 1, 2, 1), (1, 0, 1, 2), (0, 1, 1, 2),
             (2, 1, 1, 0), (1, 2, 1, 0), (2, 1, 0, 1), (1, 2, 0, 1)]
    assert [g[c] for c in cells] == [0.75] * 8
    assert np.count_nonzero(g) == 8


def test_repeated_constant_line_keeps_the_last_value():
    text = " &FCI NORB=1,NELEC=2,MS2=0,\n &END\n 0.7 0 0 0 0\n 0.5 1 1 1 1\n -0.3 0 0 0 0\n"
    assert parse_fcidump(text).constant_energy == -0.3


def test_mixed_zero_indices_rejected():
    text = " &FCI NORB=2,NELEC=2,MS2=0,\n &END\n 0.5 1 0 1 1\n"
    with pytest.raises(FcidumpError):
        parse_fcidump(text)


def test_eightfold_symmetry_filled_on_parse():
    text = " &FCI NORB=2,NELEC=2,MS2=0,\n &END\n 0.25 2 1 2 2\n 0.0 0 0 0 0\n"
    integrals = parse_fcidump(text)
    g = integrals.g
    value = g[1, 0, 1, 1]
    assert value == 0.25
    for perm in (
        g[0, 1, 1, 1],
        g[1, 1, 1, 0],
        g[1, 1, 0, 1],
    ):
        assert perm == value
