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

from .exceptions import ShapeError, checked_int

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
    (float64); the arrays are read-only. Both constructors store the
    strings in canonical order: by the base-4 number with one digit per
    qubit, I=0, X=1, Y=2, Z=3, qubit 0 most significant, so equal
    Hamiltonians always serialize identically. ``terms`` is a view of the
    same strings as (weight, :class:`PauliString`) pairs, built on first use.
    ``n_electrons`` is the electron count of a molecular Hamiltonian (0 to
    ``n_qubits``), whose sector the exact solve and VQE take; None for a
    Hamiltonian built by hand or a gate generator.
    """

    n_qubits: int
    x: np.ndarray
    z: np.ndarray
    weights: np.ndarray
    n_electrons: int | None

    def __init__(self, n_qubits: int, terms=(), n_electrons: int | None = None):
        """From (weight, :class:`PauliString`) pairs, sorted into canonical order as
        :meth:`from_arrays` sorts, so equal sums compare equal in any given order."""
        terms = tuple(terms)
        if any(p.n_qubits != n_qubits for _, p in terms):
            raise ShapeError("term qubit count differs from Hamiltonian")
        x, z = np.array([(p.x_mask, p.z_mask) for _, p in terms], dtype=np.int64).reshape(-1, 2).T
        self._store(n_qubits, x, z, np.array([w for w, _ in terms], dtype=float), n_electrons)

    @classmethod
    def from_arrays(cls, n_qubits: int, x, z, weights,
                    n_electrons: int | None = None) -> QubitHamiltonian:
        """Strings ``(x[k], z[k])`` weighing ``weights[k]``, tiny weights pruned, in
        canonical order. A non-finite weight is kept, so the constructor refuses it."""
        x, z = np.asarray(x, dtype=np.int64), np.asarray(z, dtype=np.int64)
        weights = np.asarray(weights, dtype=float)
        if not x.shape == z.shape == weights.shape == (len(weights),):
            raise ShapeError(f"x, z and weights shapes {x.shape}, {z.shape}, {weights.shape} "
                             "are not one length")
        kept = ~(np.abs(weights) < COEFF_PRUNE_THRESHOLD)
        hamiltonian = cls.__new__(cls)
        hamiltonian._store(n_qubits, x[kept], z[kept], weights[kept], n_electrons)
        return hamiltonian

    def _store(self, n_qubits: int, x, z, weights, n_electrons) -> None:
        """Sort the strings into canonical order, validate them and the count, and keep
        them."""
        if not 0 <= n_qubits <= 62:
            raise ShapeError(f"{n_qubits} qubits: masks of 0..62 qubits fit int64")
        if n_electrons is not None:
            n_electrons = checked_int(n_electrons, "n_electrons")
            if not 0 <= n_electrons <= n_qubits:
                raise ShapeError(f"{n_electrons} electrons do not fit in {n_qubits} spin orbitals")
        order = _canonical_order(n_qubits, x, z)
        x, z, weights = x[order], z[order], weights[order]
        outside = np.flatnonzero((x | z) >> n_qubits)
        if outside.size:
            k = outside[0]
            raise ShapeError(f"masks do not fit in {n_qubits} qubits: "
                             f"x={int(x[k]):#x} z={int(z[k]):#x}")
        # equal strings are adjacent in canonical order
        repeated = np.flatnonzero((x[1:] == x[:-1]) & (z[1:] == z[:-1]))
        if repeated.size:
            k = repeated[0]
            raise ShapeError("duplicate Pauli string "
                             f"{PauliString(n_qubits, int(x[k]), int(z[k]))}")
        size = np.abs(weights)
        bad = np.flatnonzero(~((COEFF_PRUNE_THRESHOLD <= size) & (size < np.inf)))
        if bad.size:
            k = bad[0]
            raise ShapeError(f"coefficient {weights[k]} of "
                             f"{PauliString(n_qubits, int(x[k]), int(z[k]))} "
                             "is below the prune threshold or not finite")
        for array in (x, z, weights):
            array.flags.writeable = False
        for name, value in zip(("n_qubits", "x", "z", "weights", "n_electrons"),
                               (n_qubits, x, z, weights, n_electrons)):
            object.__setattr__(self, name, value)  # the dataclass is frozen

    @cached_property
    def terms(self) -> tuple:
        """The strings as (weight, :class:`PauliString`) pairs, in order."""
        return tuple((w, PauliString(self.n_qubits, x, z)) for w, x, z in
                     zip(self.weights.tolist(), self.x.tolist(), self.z.tolist()))

    def __eq__(self, other) -> bool:
        return (isinstance(other, QubitHamiltonian)
                and (self.n_qubits, self.n_electrons) == (other.n_qubits, other.n_electrons)
                and all(np.array_equal(a, b) for a, b in zip(
                    (self.x, self.z, self.weights), (other.x, other.z, other.weights))))

    @property
    def n_terms(self) -> int:
        return len(self.weights)

    def hf_index(self) -> int:
        """Basis index of the Hartree-Fock reference (the lowest ``n_electrons`` spin
        orbitals), where the exact solve and VQE start; refused without a count."""
        if self.n_electrons is None:
            raise ShapeError("Hamiltonian carries no electron count, so it has no sector to solve")
        return (1 << self.n_electrons) - 1

    def x_masks(self) -> list[int]:
        """The distinct x-masks, ascending: the rows of the compiled form."""
        return self._rows[0].tolist()

    @cached_property
    def _rows(self) -> tuple:
        """The compiled form's rows, computed once: the distinct x-masks, ascending;
        the bounds of each row's strings, in string order; the most strings in a row;
        the first row of each run compiled together (at most that many strings) and
        the row count; and each string's z-mask and weight * (-i)^{#Y}."""
        by_row = np.argsort(self.x, kind="stable")  # rows keep string order
        x, z = self.x[by_row], self.z[by_row]
        x_masks, starts, counts = np.unique(x, return_index=True, return_counts=True)
        # a string's entry at partner b ^ x is weight * i^{#Y} * (-1)^popcount((b ^ x) & z),
        # and #Y = popcount(x & z), so it is weight * (-i)^{#Y} * (-1)^popcount(b & z)
        weights = self.weights[by_row] * np.array([1, -1j, -1, 1j])[np.bitwise_count(x & z) % 4]
        bounds, most = np.append(starts, len(x)).tolist(), int(counts.max(initial=0))
        runs = [0]
        while runs[-1] < len(x_masks):
            runs.append(bisect_right(bounds, bounds[runs[-1]] + most) - 1)
        return x_masks, bounds, most, runs, z, weights

    @cached_property
    def dtype(self) -> np.dtype:
        """The compiled form's dtype: complex when a row weight * (-i)^{#Y} is (a string
        with an odd number of Y letters), else float64; every byte count reads it."""
        return np.dtype(np.complex128 if self._rows[5].imag.any() else np.float64)

    def compiled_bytes(self, n_states: int | None = None) -> int:
        """Bytes compile() holds at its peak on ``n_states`` given states (default: the
        register). Per (x-mask, state) cell, its entry as if every cell were live (16 B
        of indices and the itemsize of ``dtype``); per state, 17 B per string of the
        largest rows (int8 sign table and cast), 32 B of state indices and one row's
        diagonal, and 26 B plus the itemsize per row of the widest run (diagonals,
        partners, sizes and picks); on given states, an 8 B local index per register
        state; and 4 KiB for the headers of the small arrays it makes on the way."""
        x_masks, _, most, runs, _, _ = self._rows
        itemsize, widest = self.dtype.itemsize, int(np.diff(runs).max(initial=0))
        per_state = (16 + itemsize) * len(x_masks) + 17 * most + 32 + (26 + itemsize) * widest
        local = 0 if n_states is None else 8 << self.n_qubits
        return per_state * (1 << self.n_qubits if n_states is None else n_states) + local + 4096

    def compile(self, states: np.ndarray | None = None) -> CompiledOperator:
        """A new compiled form of the sum on the ascending basis ``states`` (default:
        the register), in local indices; the caller owns (and frees) it.

        It is P H P: a cell whose partner leaves the states is not stored (``leak``
        keeps the largest), nor is a zero cell, nor any cell of an x-mask with
        nothing above ``COEFF_PRUNE_THRESHOLD`` left. Each run of rows is filled and
        picked in turn into entry arrays sized for every cell, shrunk in place at the
        end. Stored in ``dtype``; refused before allocating when its
        ``compiled_bytes`` exceed the cap.
        """
        x_masks, bounds, _, runs, z, weights = self._rows
        check_allocation(self.compiled_bytes(None if states is None else len(states)),
                         f"compiled form of {len(x_masks)} x-masks on {self.n_qubits} qubits")
        register = states is None
        if register:  # the register's states are their own local indices
            states = local = np.arange(1 << self.n_qubits)
        else:
            states, local = np.asarray(states), np.full(1 << self.n_qubits, -1)
            local[states] = np.arange(len(states))
        n_states, real = len(states), self.dtype == np.float64
        targets = np.empty(len(x_masks) * n_states, dtype=np.intp)
        sources, values = np.empty_like(targets), np.empty(len(targets), dtype=self.dtype)
        stored, leak = 0, 0.0
        for first, last in zip(runs, runs[1:]):  # one sign table per run
            table = sign_table(z[bounds[first]:bounds[last]], states)
            diagonals = np.empty((last - first, n_states), dtype=self.dtype)
            for row in range(first, last):
                strings = slice(bounds[row] - bounds[first], bounds[row + 1] - bounds[first])
                diagonal = weights[bounds[first]:][strings] @ table[strings]
                diagonals[row - first] = diagonal.real if real else diagonal
            del table, diagonal
            # "clip" never clips here (every index is in range) and, unlike "raise",
            # writes straight into ``out`` without a buffered copy
            partners = np.bitwise_xor(states, x_masks[first:last, None], dtype=np.intp)
            np.take(local, partners, out=partners, mode="clip")
            size, kept = np.abs(diagonals), partners >= 0
            leak = max(leak, float((size * ~kept).max(initial=0.0)))
            size *= kept  # an outside cell counts as zero from here
            kept &= size > 0
            kept &= size.max(axis=1, initial=0.0)[:, None] > COEFF_PRUNE_THRESHOLD
            del size
            picked = np.flatnonzero(kept)
            new = slice(stored, stored + len(picked))
            np.remainder(picked, n_states, out=targets[new])
            np.take(partners, picked, out=sources[new], mode="clip")
            np.take(diagonals, picked, out=values[new], mode="clip")
            stored = new.stop
            del diagonals, partners, kept, picked  # before the next run's
        for array in (targets, sources, values):
            array.resize(stored, refcheck=False)  # in place: no view of them is left
        return CompiledOperator(self.n_qubits, targets, sources, values, n_states, leak,
                                None if register else states)


def _bit_parity(values: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each (nonnegative) entry, as int8."""
    return (np.bitwise_count(values) & 1).view(np.int8)


def sign_table(masks, index: np.ndarray) -> np.ndarray:
    """(-1)^popcount(b & m) as int8, one row per mask m, one column per basis index b."""
    index = np.asarray(index, dtype=np.uint32)
    masks = np.asarray(masks, dtype=np.uint32).reshape(-1, 1)
    return 1 - 2 * _bit_parity(index & masks)


@dataclass(frozen=True, eq=False)
class CompiledOperator:
    """A Hamiltonian as its stored entries, H[targets[k], sources[k]] = values[k].

    A Pauli string acts as P|b> = i^{#Y} (-1)^popcount(b & z) |b ^ x>, so the
    terms sharing an x-mask sum to X^x D_x with the diagonal
    D_x[b] = sum of weight * i^{#Y} * (-1)^popcount(b & z): x-mask x has the
    entry D_x[c ^ x] at target c and source c ^ x. Entries are stored x-mask by
    x-mask, ascending, and each x-mask's in target order.

    A form on a subset of the basis states (:meth:`QubitHamiltonian.compile`)
    has local indices, dimension ``dim``, and in ``leak`` the largest entry it
    dropped for leaving the subset: 0 on a block of H. ``states`` are the basis
    states it was compiled on, None for the register.
    """

    n_qubits: int
    targets: np.ndarray  # (entries,) local row indices
    sources: np.ndarray  # (entries,) local column indices
    values: np.ndarray  # (entries,) matrix entries
    dim: int
    leak: float = 0.0
    states: np.ndarray | None = None

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """H @ vec: one gather, one product and one scatter-add, no matrix. ``np.bincount``
        adds a target's entries one by one, in stored order: 0, then x-mask by x-mask."""
        if vec.shape != (self.dim,):
            raise ShapeError(f"vector shape {vec.shape} != ({self.dim},)")
        products = self.values * vec[self.sources]
        out = np.empty(self.dim, dtype=products.dtype)
        out.real = np.bincount(self.targets, products.real, self.dim)
        if np.iscomplexobj(out):
            out.imag = np.bincount(self.targets, products.imag, self.dim)
        return out

    def expectation(self, psi: np.ndarray) -> complex:
        return complex(np.vdot(psi, self.apply(psi)))

    def dense(self) -> np.ndarray:
        """The dim x dim matrix, real when the form is (for small dimensions only)."""
        matrix = np.zeros((self.dim, self.dim), dtype=self.values.dtype)
        matrix[self.targets, self.sources] = self.values
        return matrix
