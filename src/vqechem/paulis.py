"""Pauli strings on x/z bitmasks, and Hamiltonians as weighted Pauli sums.

Conventions, fixed repo-wide:
  * qubit ``j`` is bit ``j`` of a basis-state index (little-endian);
  * letter encoding per qubit: (x=0,z=0)=I, (1,0)=X, (1,1)=Y, (0,1)=Z;
  * in letter strings qubit 0 is the leftmost character.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .exceptions import ShapeError

COEFF_PRUNE_THRESHOLD = 1e-12
# 1 GiB: cap on one compiled form, or the tables and workspace of one
# circuit or one exact solve, checked from the masks before allocating
MAX_ALLOCATION_BYTES = 1 << 30

_LETTER_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


@dataclass(frozen=True, order=True)
class PauliString:
    n_qubits: int
    x_mask: int = 0
    z_mask: int = 0

    def __post_init__(self):
        limit = 1 << self.n_qubits
        if not (0 <= self.x_mask < limit and 0 <= self.z_mask < limit):
            raise ShapeError(
                f"masks do not fit in {self.n_qubits} qubits: "
                f"x={self.x_mask:#x} z={self.z_mask:#x}"
            )

    @classmethod
    def from_letters(cls, letters: str) -> PauliString:
        x = z = 0
        for q, letter in enumerate(letters):
            try:
                xq, zq = _LETTER_TO_XZ[letter]
            except KeyError:
                raise ShapeError(f"unknown Pauli letter {letter!r}") from None
            x |= xq << q
            z |= zq << q
        return cls(len(letters), x, z)

    def to_letters(self) -> str:
        return "".join(
            _XZ_TO_LETTER[(self.x_mask >> q) & 1, (self.z_mask >> q) & 1]
            for q in range(self.n_qubits)
        )

    @property
    def support_mask(self) -> int:
        return self.x_mask | self.z_mask

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    @property
    def weight(self) -> int:
        return int(self.support_mask).bit_count()

    def __str__(self):
        return self.to_letters()


def pauli_multiply(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Product a·b as (phase, string) with phase in {1, -1, 1j, -1j}.

    Writing each single-qubit Pauli as i^{xz} X^x Z^z, the product phase
    exponent per qubit is x1*z1 + x2*z2 + 2*z1*x2 - (x1^x2)*(z1^z2) mod 4.
    """
    if a.n_qubits != b.n_qubits:
        raise ShapeError(f"qubit counts differ: {a.n_qubits} != {b.n_qubits}")
    x1, z1, x2, z2 = a.x_mask, a.z_mask, b.x_mask, b.z_mask
    x, z = x1 ^ x2, z1 ^ z2
    k = (
        int(x1 & z1).bit_count()
        + int(x2 & z2).bit_count()
        + 2 * int(z1 & x2).bit_count()
        - int(x & z).bit_count()
    ) % 4
    return (1, 1j, -1, -1j)[k], PauliString(a.n_qubits, x, z)


def check_allocation(needed: int, what: str) -> None:
    """Refuse ``what`` when its ``needed`` bytes exceed ``MAX_ALLOCATION_BYTES``."""
    if needed > MAX_ALLOCATION_BYTES:
        raise ShapeError(f"{what} would take {needed / 2**30:.1f} GiB, "
                         f"above the {MAX_ALLOCATION_BYTES / 2**30:.0f} GiB limit")


def real_if_exact(values: np.ndarray) -> np.ndarray:
    """``values`` as a real array when every imaginary part is exactly zero."""
    return values if values.imag.any() else values.real.copy()


def commutes_qubitwise(a: PauliString, b: PauliString) -> bool:
    """True iff at every qubit the letters are equal or at least one is I."""
    if a.n_qubits != b.n_qubits:
        raise ShapeError(f"qubit counts differ: {a.n_qubits} != {b.n_qubits}")
    both = a.support_mask & b.support_mask
    return (a.x_mask ^ b.x_mask) & both == 0 and (a.z_mask ^ b.z_mask) & both == 0


@dataclass(frozen=True)
class QubitHamiltonian:
    """Weighted sum of Pauli strings with real coefficients."""

    n_qubits: int
    terms: tuple[tuple[float, PauliString], ...]

    def __post_init__(self):
        seen = set()
        for w, p in self.terms:
            if p.n_qubits != self.n_qubits:
                raise ShapeError("term qubit count differs from Hamiltonian")
            if (p.x_mask, p.z_mask) in seen:
                raise ShapeError(f"duplicate Pauli string {p}")
            seen.add((p.x_mask, p.z_mask))
            if not COEFF_PRUNE_THRESHOLD <= abs(w) < np.inf:
                raise ShapeError(f"coefficient {w} of {p} is below the prune threshold "
                                 "or not finite")

    @classmethod
    def from_term_dict(cls, n_qubits: int, coeffs: dict) -> QubitHamiltonian:
        """Build from {(x_mask, z_mask): weight}, pruning tiny weights.

        A non-finite weight is kept, so the constructor refuses it.

        Terms are ordered by letter string so equal Hamiltonians always
        serialize identically: by the base-4 number with one digit per qubit,
        I=0, X=1, Y=2, Z=3, qubit 0 most significant.
        """
        weights = {key: float(w) for key, w in coeffs.items()}
        kept = [(key, w) for key, w in weights.items() if not abs(w) < COEFF_PRUNE_THRESHOLD]
        x, z = np.array([key for key, _ in kept], dtype=np.int64).reshape(-1, 2, 1).swapaxes(0, 1)
        qubits = np.arange(n_qubits)
        # (x, z) = 00, 10, 11, 01 for I, X, Y, Z: the digit is 2z + (x ^ z)
        digits = 2 * ((z >> qubits) & 1) + (((x ^ z) >> qubits) & 1)
        order = np.lexsort(digits.T[::-1]).tolist() if n_qubits else range(len(kept))
        return cls(n_qubits, tuple((kept[i][1], PauliString(n_qubits, *kept[i][0]))
                                   for i in order))

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def identity_weight(self) -> float:
        for w, p in self.terms:
            if p.is_identity:
                return w
        return 0.0

    def x_masks(self) -> list[int]:
        """The distinct x-masks, ascending: the rows of the compiled form."""
        return sorted({p.x_mask for _, p in self.terms})

    def compiled_bytes(self) -> int:
        """Bytes compile() takes: 24 per (x-mask, state) entry, and 17 per (string,
        state) for its largest row's sign table, as int8 and its complex cast."""
        strings = Counter(p.x_mask for _, p in self.terms)
        return (24 * len(strings) + 17 * max(strings.values(), default=0)) << self.n_qubits

    def compile(self) -> CompiledOperator:
        """A new compiled form of the sum; the caller owns (and frees) it.

        Refused before allocating when its ``compiled_bytes()`` exceed the cap.
        """
        x_masks = self.x_masks()
        by_x = {x: [] for x in x_masks}
        for w, p in self.terms:
            by_x[p.x_mask].append((w, p))
        check_allocation(self.compiled_bytes(),
                         f"compiled form of {len(x_masks)} x-masks on {self.n_qubits} qubits")
        dim = 1 << self.n_qubits
        gather = np.arange(dim) ^ np.array(x_masks, dtype=np.int64).reshape(-1, 1)
        shifted = np.empty(gather.shape, dtype=np.complex128)
        for row, x in enumerate(x_masks):
            weights = np.array([w * 1j ** int(p.x_mask & p.z_mask).bit_count()
                                for w, p in by_x[x]])
            diagonal = weights @ sign_table([p.z_mask for _, p in by_x[x]], self.n_qubits)
            shifted[row] = diagonal[gather[row]]
        return CompiledOperator(self.n_qubits, gather, shifted)


def _bit_parity(values: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each (nonnegative) entry, as int8."""
    return (np.bitwise_count(values) & 1).view(np.int8)


def sign_table(masks, n_qubits: int) -> np.ndarray:
    """(-1)^popcount(b & m) as int8, one row per mask m, one column per basis index b."""
    index = np.arange(1 << n_qubits, dtype=np.uint32)
    masks = np.asarray(masks, dtype=np.uint32).reshape(-1, 1)
    return 1 - 2 * _bit_parity(index & masks)


# x-mask rows per chunk of a (rows, dim) pass over a compiled form, such as
# the gather-add of CompiledOperator.apply; bounds its temporaries at
# 64 * 2**n amplitudes (4 MiB at 12 qubits)
ROWS_PER_BLOCK = 64


@dataclass(frozen=True, eq=False)
class CompiledOperator:
    """A Hamiltonian as H = sum_x X^x D_x, one row per distinct x-mask.

    A Pauli string acts as P|b> = i^{#Y} (-1)^popcount(b & z) |b ^ x>, so the
    terms sharing an x-mask sum to X^x D_x with the diagonal
    D_x[b] = sum of weight * i^{#Y} * (-1)^popcount(b & z). Row k stores
    ``gather[k, c] = c ^ x_k`` and ``shifted[k, c] = D_{x_k}[c ^ x_k]``, so
    (H v)[c] = sum_k shifted[k, c] * v[gather[k, c]].

    A form made by :meth:`restrict` acts on a subset of the basis states; its
    indices are local (positions in that subset) and its dimension is
    ``gather.shape[1]``.
    """

    n_qubits: int
    gather: np.ndarray  # (rows, dim) basis indices
    shifted: np.ndarray  # (rows, dim) diagonals, permuted

    @property
    def dim(self) -> int:
        return self.gather.shape[1]

    def compile(self) -> CompiledOperator:
        return self

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """H @ vec: one gather-multiply-add per x-mask, no matrix."""
        if vec.shape != (self.dim,):
            raise ShapeError(f"vector shape {vec.shape} != ({self.dim},)")
        out = np.zeros(self.dim, dtype=np.result_type(self.shifted, vec))
        for start in range(0, self.gather.shape[0], ROWS_PER_BLOCK):
            rows = slice(start, start + ROWS_PER_BLOCK)
            out += (self.shifted[rows] * vec[self.gather[rows]]).sum(axis=0)
        return out

    def expectation(self, psi: np.ndarray) -> complex:
        return complex(np.vdot(psi, self.apply(psi)))

    def dense(self) -> np.ndarray:
        """The dim x dim matrix (intended for small dimensions only)."""
        # entry (k, c) lands in cell (c, gather[k, c]); distinct x-masks put
        # the nonzero entries of one row c in distinct cells, while the zeroed
        # entries of a restricted form all point at local state 0 and are skipped
        matrix = np.zeros((self.dim, self.dim), dtype=np.complex128)
        live = self.shifted != 0
        matrix[np.nonzero(live)[1], self.gather[live]] = self.shifted[live]
        return matrix

    def restrict(self, states: np.ndarray) -> CompiledOperator:
        """P H P on the ascending basis ``states``, in local indices 0..len-1.

        Entries whose partner lies outside ``states`` are set to zero, and
        x-mask rows with no entry above ``COEFF_PRUNE_THRESHOLD`` left are
        dropped; real diagonals are stored real. On a block of a
        block-diagonal operator this is the block.
        """
        if len(states) == self.dim:  # every state: the operator itself
            return self
        local = np.full(self.dim, -1, dtype=np.intp)
        local[states] = np.arange(len(states))
        gather = local[np.take(self.gather, states, axis=1)]
        shifted = real_if_exact(np.take(self.shifted, states, axis=1))
        shifted *= gather >= 0
        live = (np.abs(shifted) > COEFF_PRUNE_THRESHOLD).any(axis=1)
        # an entry zeroed above points at local state 0, so every index is valid
        return CompiledOperator(self.n_qubits, np.maximum(gather[live], 0), shifted[live])
