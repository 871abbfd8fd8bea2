"""FCIDUMP text exchange format for molecular integrals.

Grammar: a namelist header ``&FCI NORB=<n>,NELEC=<n>,MS2=<n>,`` with
optional ``ORBSYM=...`` and ``ISYM=<n>``, terminated by ``&END`` or ``/``;
then value lines ``<value> <i> <j> <k> <l>`` with 1-based indices.
``i j 0 0`` is the one-body element h_ij, ``0 0 0 0`` the constant energy,
and four nonzero indices the chemist-notation integral (ij|kl). Values are
real decimals (fixed or scientific); stray ``/`` tokens between value lines
are tolerated. On write the 8-fold unique elements are emitted with 17
significant digits so parse/write round-trips are exact.
"""

from __future__ import annotations

import re

import numpy as np

from .exceptions import FcidumpError
from .integrals import MolecularIntegrals

_HEADER_FIELD = re.compile(r"([A-Za-z0-9]+)\s*=\s*([^=,]+?)(?=(?:\s*,\s*[A-Za-z0-9]+\s*=)|\s*$)")


def parse_fcidump(text: str) -> MolecularIntegrals:
    lines = text.splitlines()

    # locate and parse the header
    header_parts = []
    body_lines = None
    in_header = False
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not in_header:
            if not stripped:
                continue
            if not stripped.upper().startswith("&FCI"):
                raise FcidumpError("expected header to start with &FCI", lineno)
            in_header = True
            stripped = stripped[4:]
        end = None
        for token in ("&END", "/"):
            pos = stripped.upper().find(token)
            if pos >= 0 and (end is None or pos < end[0]):
                end = (pos, token)
        if end is not None:
            header_parts.append(stripped[: end[0]])
            tail = stripped[end[0] + len(end[1]):]
            body_lines = [(lineno, tail)] + [
                (no, text) for no, text in enumerate(lines[lineno:], start=lineno + 1)
            ]
            break
        header_parts.append(stripped)
    else:
        raise FcidumpError("header never terminated by &END or /", len(lines))

    header_text = " ".join(header_parts)
    fields = {m.group(1).upper(): m.group(2).strip() for m in _HEADER_FIELD.finditer(header_text)}
    try:
        n_orb = int(fields["NORB"])
        n_elec = int(fields["NELEC"])
        int(fields.get("MS2", "0"))
    except (KeyError, ValueError) as exc:
        raise FcidumpError(f"malformed header ({exc})", 1) from None
    if n_orb < 1:
        raise FcidumpError(f"NORB must be positive, got {n_orb}", 1)
    if not 0 <= n_elec <= 2 * n_orb:
        raise FcidumpError(f"NELEC must be in 0..{2 * n_orb} for NORB={n_orb}, got {n_elec}", 1)

    h = np.zeros((n_orb, n_orb))
    g = np.zeros((n_orb, n_orb, n_orb, n_orb))
    constant = 0.0

    tokens = []
    for lineno, line in body_lines:
        for tok in line.split():
            if tok == "/":
                continue
            tokens.append((tok, lineno))
    if len(tokens) % 5 != 0:
        raise FcidumpError(
            "body token count is not a multiple of 5",
            tokens[-1][1] if tokens else body_lines[0][0],
        )

    for pos in range(0, len(tokens), 5):
        (v_tok, lineno) = tokens[pos]
        try:
            value = float(v_tok)
        except ValueError:
            raise FcidumpError(f"non-real value token {v_tok!r}", lineno) from None
        try:
            i, j, k, l = (int(tokens[pos + m][0]) for m in range(1, 5))
        except ValueError:
            raise FcidumpError("non-integer orbital index", lineno) from None
        for idx in (i, j, k, l):
            if idx < 0 or idx > n_orb:
                raise FcidumpError(f"orbital index {idx} out of range 1..{n_orb}", lineno)
        if (i, j, k, l) == (0, 0, 0, 0):
            constant = value
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise FcidumpError(f"bad one-body index pair ({i},{j})", lineno)
            h[i - 1, j - 1] = h[j - 1, i - 1] = value
        elif 0 in (i, j, k, l):
            raise FcidumpError(f"mixed zero/nonzero indices ({i},{j},{k},{l})", lineno)
        else:
            a, b, c, d = i - 1, j - 1, k - 1, l - 1
            for p, q, r, s in (
                (a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c),
                (c, d, a, b), (d, c, a, b), (c, d, b, a), (d, c, b, a),
            ):
                g[p, q, r, s] = value

    return MolecularIntegrals(n_spatial_orbitals=n_orb, n_electrons=n_elec,
                              constant_energy=constant, h=h, g=g)


def write_fcidump(integrals: MolecularIntegrals) -> str:
    """Serialize to FCIDUMP text; entries that are exactly zero are not written."""
    n = integrals.n_spatial_orbitals
    ms2 = integrals.n_electrons % 2
    out = [
        f" &FCI NORB={n},NELEC={integrals.n_electrons},MS2={ms2},",
        "  ORBSYM=" + ",".join(["1"] * n) + ",",
        "  ISYM=1,",
        " &END",
    ]

    def fmt(value, i, j, k, l):
        return f" {value:.16e} {i:4d} {j:4d} {k:4d} {l:4d}"

    for i in range(n):
        for j in range(i + 1):
            for k in range(i + 1):
                l_max = j if k == i else k
                for l in range(l_max + 1):
                    v = float(integrals.g[i, j, k, l])
                    if abs(v) > 0.0:
                        out.append(fmt(v, i + 1, j + 1, k + 1, l + 1))
    for i in range(n):
        for j in range(i + 1):
            v = float(integrals.h[i, j])
            if abs(v) > 0.0:
                out.append(fmt(v, i + 1, j + 1, 0, 0))
    out.append(fmt(float(integrals.constant_energy), 0, 0, 0, 0))
    return "\n".join(out) + "\n"
