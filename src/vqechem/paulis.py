"""Pauli strings on x/z bitmasks, and Hamiltonians as weighted Pauli sums.

A :class:`QubitHamiltonian` is stored as three arrays, the x-mask, z-mask
and weight of each string, in canonical letter order; Jordan-Wigner fills
them directly, and grouping and compiling read them. Its ``terms`` are a
read-only view as (weight, :class:`PauliString`) pairs, built on first use.

Conventions, fixed repo-wide:
  * qubit ``j`` is bit ``j`` of a basis-state index (little-endian);
  * letter encoding per qubit: (x=0,z=0)=I, (1,0)=X, (1,1)=Y, (0,1)=Z;
  * in letter strings qubit 0 is the leftmost character.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ShapeError

COEFF_PRUNE_THRESHOLD = 1e-12
# 1 GiB: cap on one compiled form, or the tables and workspace of one
# circuit or one exact solve, checked from the masks before allocating
MAX_ALLOCATION_BYTES = 1 << 30

_LETTER_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_LETTERS = np.frombuffer(b"IXZY", dtype="S1")  # indexed by x + 2z


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
        return letter_strings(self.n_qubits, [self.x_mask], [self.z_mask])[0]

    @property
    def support_mask(self) -> int:
        return self.x_mask | self.z_mask

    def __str__(self):
        return self.to_letters()


def check_allocation(needed: int, what: str) -> None:
    """Refuse ``what`` when its ``needed`` bytes exceed ``MAX_ALLOCATION_BYTES``."""
    if needed > MAX_ALLOCATION_BYTES:
        raise ShapeError(f"{what} would take {needed / 2**30:.1f} GiB, "
                         f"above the {MAX_ALLOCATION_BYTES / 2**30:.0f} GiB limit")


def real_if_exact(values: np.ndarray) -> np.ndarray:
    """``values`` as a real array when every imaginary part is exactly zero."""
    return values if values.imag.any() else values.real.copy()


def letter_strings(n_qubits: int, x, z) -> list[str]:
    """The letter string of each string ``(x[k], z[k])``, qubit 0 first."""
    qubits = np.arange(n_qubits)
    codes = ((np.asarray(x)[:, None] >> qubits) & 1) + 2 * ((np.asarray(z)[:, None] >> qubits) & 1)
    text = _LETTERS[codes].tobytes().decode("ascii")
    return [text[k * n_qubits:(k + 1) * n_qubits] for k in range(len(codes))]


def _canonical_order(n_qubits: int, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The permutation that sorts strings by letter string (I < X < Y < Z, qubit 0 first)."""
    qubits = np.arange(n_qubits)
    # (x, z) = 00, 10, 11, 01 for I, X, Y, Z: the digit is 2z + (x ^ z)
    digits = 2 * ((z[:, None] >> qubits) & 1) + (((x ^ z)[:, None] >> qubits) & 1)
    # base-4 keys of up to 31 digits each, the first qubits' key the most significant
    keys = [(digits[:, q:q + 31] << 2 * np.arange(min(31, n_qubits - q))[::-1]).sum(axis=1)
            for q in range(0, max(n_qubits, 1), 31)]
    return np.lexsort(keys[::-1])


@dataclass(frozen=True, init=False, eq=False)
class QubitHamiltonian:
    """Weighted sum of Pauli strings with real coefficients, stored as arrays.

    String k is ``x[k]``, ``z[k]`` (int64 masks) with weight ``weights[k]``
    (float64); the arrays are read-only. :meth:`from_arrays` stores the
    strings in canonical order: by the base-4 number with one digit per
    qubit, I=0, X=1, Y=2, Z=3, qubit 0 most significant, so equal
    Hamiltonians always serialize identically. ``terms`` is a view of the
    same strings as (weight, :class:`PauliString`) pairs, built on first use.
    """

    n_qubits: int
    x: np.ndarray
    z: np.ndarray
    weights: np.ndarray

    def __init__(self, n_qubits: int, terms=()):
        """From (weight, :class:`PauliString`) pairs, stored in the given order."""
        terms = tuple(terms)
        if any(p.n_qubits != n_qubits for _, p in terms):
            raise ShapeError("term qubit count differs from Hamiltonian")
        x, z = np.array([(p.x_mask, p.z_mask) for _, p in terms], dtype=np.int64).reshape(-1, 2).T
        self._store(n_qubits, x, z, np.array([w for w, _ in terms], dtype=float), sort=False)

    @classmethod
    def from_arrays(cls, n_qubits: int, x, z, weights) -> QubitHamiltonian:
        """Strings ``(x[k], z[k])`` weighing ``weights[k]``, tiny weights pruned, in
        canonical order. A non-finite weight is kept, so the constructor refuses it."""
        x, z = np.asarray(x, dtype=np.int64), np.asarray(z, dtype=np.int64)
        weights = np.asarray(weights, dtype=float)
        if not x.shape == z.shape == weights.shape == (len(weights),):
            raise ShapeError(f"x, z and weights shapes {x.shape}, {z.shape}, {weights.shape} "
                             "are not one length")
        kept = ~(np.abs(weights) < COEFF_PRUNE_THRESHOLD)
        hamiltonian = cls.__new__(cls)
        hamiltonian._store(n_qubits, x[kept], z[kept], weights[kept], sort=True)
        return hamiltonian

    def _store(self, n_qubits: int, x, z, weights, sort: bool) -> None:
        """Validate the strings and keep them, sorted into canonical order if ``sort``."""
        if not 0 <= n_qubits <= 62:
            raise ShapeError(f"{n_qubits} qubits: masks of 0..62 qubits fit int64")
        order = _canonical_order(n_qubits, x, z)
        if sort:
            x, z, weights, order = x[order], z[order], weights[order], slice(None)
        outside = np.flatnonzero((x | z) >> n_qubits)
        if outside.size:
            k = outside[0]
            raise ShapeError(f"masks do not fit in {n_qubits} qubits: "
                             f"x={int(x[k]):#x} z={int(z[k]):#x}")
        sx, sz = x[order], z[order]  # equal strings are adjacent in canonical order
        repeated = np.flatnonzero((sx[1:] == sx[:-1]) & (sz[1:] == sz[:-1]))
        if repeated.size:
            k = repeated[0]
            raise ShapeError("duplicate Pauli string "
                             f"{PauliString(n_qubits, int(sx[k]), int(sz[k]))}")
        size = np.abs(weights)
        bad = np.flatnonzero(~((COEFF_PRUNE_THRESHOLD <= size) & (size < np.inf)))
        if bad.size:
            k = bad[0]
            raise ShapeError(f"coefficient {weights[k]} of "
                             f"{PauliString(n_qubits, int(x[k]), int(z[k]))} "
                             "is below the prune threshold or not finite")
        for array in (x, z, weights):
            array.flags.writeable = False
        for name, value in zip(("n_qubits", "x", "z", "weights"), (n_qubits, x, z, weights)):
            object.__setattr__(self, name, value)  # the dataclass is frozen

    @cached_property
    def terms(self) -> tuple:
        """The strings as (weight, :class:`PauliString`) pairs, in order."""
        return tuple((w, PauliString(self.n_qubits, x, z)) for w, x, z in
                     zip(self.weights.tolist(), self.x.tolist(), self.z.tolist()))

    def __eq__(self, other) -> bool:
        return (isinstance(other, QubitHamiltonian) and self.n_qubits == other.n_qubits
                and all(np.array_equal(a, b) for a, b in zip(
                    (self.x, self.z, self.weights), (other.x, other.z, other.weights))))

    @property
    def n_terms(self) -> int:
        return len(self.weights)

    def x_masks(self) -> list[int]:
        """The distinct x-masks, ascending: the rows of the compiled form."""
        return self._rows[0].tolist()

    @cached_property
    def _rows(self) -> tuple:
        """The compiled form's rows, computed once: the distinct x-masks, ascending;
        the bounds of each row's strings, in string order; the most strings in a row;
        and each string's z-mask and weight * (-i)^{#Y}."""
        by_row = np.argsort(self.x, kind="stable")  # rows keep string order
        x, z = self.x[by_row], self.z[by_row]
        x_masks, starts, counts = np.unique(x, return_index=True, return_counts=True)
        # a string's entry at partner b ^ x is weight * i^{#Y} * (-1)^popcount((b ^ x) & z),
        # and #Y = popcount(x & z), so it is weight * (-i)^{#Y} * (-1)^popcount(b & z)
        weights = self.weights[by_row] * np.array([1, -1j, -1, 1j])[np.bitwise_count(x & z) % 4]
        return (x_masks, np.append(starts, len(x)).tolist(), int(counts.max(initial=0)),
                z, weights)

    def compiled_bytes(self, n_states: int | None = None) -> int:
        """Bytes compile() takes on the register, or on ``n_states`` given states: 24 per
        (x-mask, state) entry, or 40 with local indices and the live-row test plus 8 per
        register state; 17 per (string, state) of its largest rows' int8 sign table and cast."""
        x_masks, _, most, _, _ = self._rows
        if n_states is None:
            return (24 * len(x_masks) + 17 * most) << self.n_qubits
        return (40 * len(x_masks) + 17 * most) * n_states + (8 << self.n_qubits)

    def compile(self, states: np.ndarray | None = None) -> CompiledOperator:
        """A new compiled form of the sum; the caller owns (and frees) it.

        On ascending basis ``states`` it is P H P in local indices: an entry whose
        partner leaves them is zeroed (``leak`` keeps the largest) and points at
        local state 0, and a row with nothing above ``COEFF_PRUNE_THRESHOLD`` left
        is dropped. Stored real when no string has an odd number of Y letters;
        refused before allocating when its ``compiled_bytes`` exceed the cap.
        """
        x_masks, bounds, most, z, weights = self._rows
        whole = states is None
        check_allocation(self.compiled_bytes(None if whole else len(states)),
                         f"compiled form of {len(x_masks)} x-masks on {self.n_qubits} qubits")
        states = np.arange(1 << self.n_qubits) if whole else np.asarray(states)
        real = not weights.imag.any()
        gather = np.bitwise_xor(states, x_masks.reshape(-1, 1), dtype=np.intp)
        shifted = np.empty(gather.shape, dtype=np.float64 if real else np.complex128)
        first = 0
        while first < len(x_masks):  # one sign table per run of rows, at most ``most`` strings
            last = bisect_right(bounds, bounds[first] + most) - 1
            table = sign_table(z[bounds[first]:bounds[last]], states)
            for row in range(first, last):
                strings = slice(bounds[row], bounds[row + 1])
                values = weights[strings] @ table[strings.start - bounds[first]:
                                                  strings.stop - bounds[first]]
                shifted[row] = values.real if real else values
            first = last
        if whole:
            return CompiledOperator(self.n_qubits, gather, shifted)
        local = np.full(1 << self.n_qubits, -1)
        local[states] = np.arange(len(states))
        gather = local[gather]
        outside = gather < 0
        leak = float(np.abs(shifted[outside]).max(initial=0.0))
        shifted[outside] = gather[outside] = 0
        live = np.abs(shifted).max(axis=1, initial=0.0) > COEFF_PRUNE_THRESHOLD
        return CompiledOperator(self.n_qubits, gather[live], shifted[live], leak)


def _bit_parity(values: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each (nonnegative) entry, as int8."""
    return (np.bitwise_count(values) & 1).view(np.int8)


def sign_table(masks, index: np.ndarray) -> np.ndarray:
    """(-1)^popcount(b & m) as int8, one row per mask m, one column per basis index b."""
    index = np.asarray(index, dtype=np.uint32)
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

    A form on a subset of the basis states (:meth:`QubitHamiltonian.compile`)
    has local indices, dimension ``gather.shape[1]``, and in ``leak`` the
    largest entry it dropped for leaving the subset: 0 on a block of H.
    """

    n_qubits: int
    gather: np.ndarray  # (rows, dim) basis indices
    shifted: np.ndarray  # (rows, dim) diagonals, permuted
    leak: float = 0.0

    @property
    def dim(self) -> int:
        return self.gather.shape[1]

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
        """The dim x dim matrix, real when the form is (for small dimensions only)."""
        # entry (k, c) lands in cell (c, gather[k, c]); distinct x-masks put
        # the nonzero entries of one row c in distinct cells, while the zeroed
        # entries of a form on a subset all point at local state 0 and are skipped
        matrix = np.zeros((self.dim, self.dim), dtype=self.shifted.dtype)
        live = self.shifted != 0
        matrix[np.nonzero(live)[1], self.gather[live]] = self.shifted[live]
        return matrix
