"""Classical optimizers for the hybrid variational loop.

Two derivative-free minimizers: SPSA (stochastic, two-sided simultaneous
perturbations) and a Nelder-Mead simplex filling the deterministic role.
Both record a per-iteration energy trace and are bit-reproducible for a
fixed seed. The objectives run a circuit on the Hartree-Fock (N_alpha, N_beta)
sector if every gate keeps it (UCCSD), else on the register (hardware-efficient).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import OptimizerDivergedError, ShapeError, checked_int, checked_real
from .measurement import estimate_energy_sampled, group_commuting, group_tables
from .paulis import QubitHamiltonian, check_allocation
from .simulator import (SEED_LIMIT, Circuit, Statevector, apply_circuit, checked_seed, expectation,
                        sector_states)

# SPSA gain schedule a_k = SPSA_A/(SPSA_BIG_A+k+1)^SPSA_ALPHA and
# c_k = SPSA_C/(k+1)^SPSA_GAMMA: Spall's standard exponents and stability
# constant (IEEE Trans. Aerosp. Electron. Syst. 34, 817 (1998))
SPSA_A = 0.1
SPSA_C = 0.1
SPSA_BIG_A = 10.0
SPSA_ALPHA = 0.602
SPSA_GAMMA = 0.101
SIMPLEX_STEP = 0.1  # edge of the initial simplex along each parameter


@dataclass(frozen=True)
class OptimizerConfig:
    """Which minimizer runs, and when it stops.

    ``spsa_window`` is the trailing number of SPSA iterations over which the
    best energy must improve by ``convergence_threshold``; ``simplex_xtol``
    bounds the simplex diameter at convergence. A bad value raises ShapeError.
    The SPSA gains (``SPSA_*``) and the initial simplex step (``SIMPLEX_STEP``) are fixed.
    """

    kind: str = "simplex"
    max_iterations: int = 200
    convergence_threshold: float = 1e-4  # Hartree
    seed: int = 0  # in [0, 2**63)
    spsa_window: int = 20
    simplex_xtol: float = 1e-6

    def __post_init__(self):
        if self.kind not in ("spsa", "simplex"):
            raise ShapeError(f"unknown optimizer kind {self.kind!r}")
        checked_int(self.max_iterations, "max_iterations", 1)
        for name in ("convergence_threshold", "simplex_xtol"):
            if checked_real(getattr(self, name), name) <= 0:
                raise ShapeError(f"{name} must be positive, got {getattr(self, name)!r}")
        checked_seed(self.seed)
        checked_int(self.spsa_window, "spsa_window", 1)


@dataclass(frozen=True)
class VqeResult:
    final_energy: float
    final_parameters: np.ndarray
    energy_trace: tuple
    n_function_evaluations: int
    converged: bool
    termination_reason: str
    restart_results: tuple = field(default=(), repr=False)

    def best_so_far(self) -> list[float]:
        """Running minimum of the trace (nonincreasing by construction)."""
        best = math.inf
        out = []
        for e in self.energy_trace:
            best = min(best, e)
            out.append(best)
        return out


def _checked(objective, trace):
    def wrapped(theta):
        value = float(objective(theta))
        if not math.isfinite(value):
            raise OptimizerDivergedError(
                f"objective returned non-finite value {value}", trace=trace
            )
        return value

    return wrapped


def _zero_dim_result(objective) -> VqeResult:
    energy = float(objective(np.zeros(0)))
    return VqeResult(energy, np.zeros(0), (energy,), 1, True, "no_parameters")


def spsa_minimize(objective, theta0, config: OptimizerConfig) -> VqeResult:
    """Simultaneous-perturbation stochastic approximation.

    Rademacher perturbations from a generator seeded by the config; stops
    at the iteration cap or when the best energy has improved by less than
    the convergence threshold over the trailing window.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    if theta.ndim != 1:
        raise ShapeError("theta0 must be a 1-D parameter vector")
    if theta.size == 0:
        return _zero_dim_result(objective)

    trace: list[float] = []
    f = _checked(objective, trace)
    rng = np.random.default_rng(config.seed)
    evals = 0
    best_energy = math.inf
    best_theta = theta.copy()
    converged = False

    for k in range(config.max_iterations):
        a_k = SPSA_A / (SPSA_BIG_A + k + 1) ** SPSA_ALPHA
        c_k = SPSA_C / (k + 1) ** SPSA_GAMMA
        delta = rng.integers(0, 2, size=theta.size) * 2.0 - 1.0
        f_plus = f(theta + c_k * delta)
        f_minus = f(theta - c_k * delta)
        evals += 2
        gradient = (f_plus - f_minus) / (2.0 * c_k) * delta
        theta = theta - a_k * gradient
        energy = f(theta)
        evals += 1
        trace.append(energy)
        if energy < best_energy:
            best_energy = energy
            best_theta = theta.copy()
        window = config.spsa_window
        if len(trace) > window:
            previous_best = min(trace[:-window])
            if previous_best - best_energy < config.convergence_threshold:
                converged = True
                break

    return VqeResult(
        final_energy=best_energy,
        final_parameters=best_theta,
        energy_trace=tuple(trace),
        n_function_evaluations=evals,
        converged=converged,
        termination_reason="converged" if converged else "iteration_cap",
    )


def simplex_minimize(objective, theta0, config: OptimizerConfig) -> VqeResult:
    """Nelder-Mead with standard coefficients (1, 2, 0.5, 0.5).

    Terminates when the simplex energy spread drops below the convergence
    threshold (and the simplex diameter below ``simplex_xtol``, so a
    symmetric straddle of a minimum cannot stall the contraction) or at
    the iteration cap. Fully deterministic.
    """
    x0 = np.asarray(theta0, dtype=float).copy()
    if x0.ndim != 1:
        raise ShapeError("theta0 must be a 1-D parameter vector")
    if x0.size == 0:
        return _zero_dim_result(objective)

    trace: list[float] = []
    f = _checked(objective, trace)
    reflect, expand, contract, shrink = 1.0, 2.0, 0.5, 0.5
    d = x0.size

    # one vertex per row and one Python float per value; the arithmetic and
    # evaluation order are those of a per-vertex loop, so results do not
    # depend on the layout
    vertices = np.vstack([x0, x0 + SIMPLEX_STEP * np.eye(d)])
    values = [f(v) for v in vertices]
    evals = d + 1
    converged = False

    for _ in range(config.max_iterations):
        order = sorted(range(d + 1), key=values.__getitem__)  # stable, as argsort's
        vertices, values = vertices[order], [values[i] for i in order]
        if (values[-1] - values[0] < config.convergence_threshold
                and np.abs(vertices[1:] - vertices[0]).max() < config.simplex_xtol):
            converged = True
            trace.append(values[0])
            break

        centroid = np.add.reduce(vertices[:-1]) / d  # what mean(axis=0) computes
        xr = centroid + reflect * (centroid - vertices[-1])
        fr = f(xr)
        evals += 1
        if fr < values[0]:
            xe = centroid + expand * (xr - centroid)
            fe = f(xe)
            evals += 1
            if fe < fr:
                vertices[-1], values[-1] = xe, fe
            else:
                vertices[-1], values[-1] = xr, fr
        elif fr < values[-2]:
            vertices[-1], values[-1] = xr, fr
        else:
            if fr < values[-1]:
                xc = centroid + contract * (xr - centroid)
                fc = f(xc)
                evals += 1
                accepted = fc <= fr
            else:
                xc = centroid - contract * (centroid - vertices[-1])
                fc = f(xc)
                evals += 1
                accepted = fc < values[-1]
            if accepted:
                vertices[-1], values[-1] = xc, fc
            else:
                vertices[1:] = vertices[0] + shrink * (vertices[1:] - vertices[0])
                values[1:] = [f(v) for v in vertices[1:]]
                evals += d
        trace.append(min(values))

    best = min(values)
    return VqeResult(
        final_energy=best,
        final_parameters=vertices[values.index(best)].copy(),
        energy_trace=tuple(trace),
        n_function_evaluations=evals,
        converged=converged,
        termination_reason="converged" if converged else "iteration_cap",
    )


def minimize(objective, theta0, config: OptimizerConfig) -> VqeResult:
    if config.kind == "spsa":
        return spsa_minimize(objective, theta0, config)
    return simplex_minimize(objective, theta0, config)


def _start(hamiltonian: QubitHamiltonian, circuit: Circuit) -> tuple[Circuit, Statevector]:
    """(the circuit as it runs, the state it starts from) at the Hamiltonian's Hartree-Fock
    reference ``hamiltonian.hf_index()``: on its (N_alpha, N_beta) sector from its real basis
    vector if every gate is a Pauli rotation that keeps the sector, else (an ry or cz among
    them) on the register from its complex one. A Hamiltonian without an electron count or a
    circuit on other qubits is refused."""
    n = hamiltonian.n_qubits
    if circuit.n_qubits != n:
        raise ShapeError("circuit and Hamiltonian qubit counts differ")
    hf = hamiltonian.hf_index()
    reference = Statevector(n, np.ones(1), np.array([hf]))  # the qubit limit, before any table
    if circuit.last_sector[0] != hf:  # kept for the next call; the dataclass is frozen
        keeps = all(g.kind == "pauli_rot" for g in circuit.gates)  # restrict refuses ry, cz
        restricted = keeps and circuit.restrict(sector_states(n, hf)) or circuit.register
        object.__setattr__(circuit, "last_sector", (hf, restricted))
    restricted = circuit.last_sector[1]
    if restricted.states is None:
        return restricted, reference.on_register()
    return restricted, Statevector(n, (restricted.states == hf).astype(float), restricted.states)


def exact_energy_objective(hamiltonian: QubitHamiltonian, circuit: Circuit):
    """theta -> exact <psi(theta)|H|psi(theta)> from the Hamiltonian's Hartree-Fock state.

    A circuit that keeps the Hartree-Fock sector runs there, its tables and H compiled
    there, real when the data are (<psi|PHP|psi> = <psi|H|psi>), any other on the register.
    The bytes of its tables and the form are checked together, before compiling.
    """
    circuit, reference = _start(hamiltonian, circuit)
    held = sum(a.nbytes for t in circuit.tables for a in t if isinstance(a, np.ndarray))
    n_states = None if reference.states is None else len(reference.states)
    check_allocation(held + hamiltonian.compiled_bytes(n_states),
                     f"gate tables and compiled form of {len(hamiltonian.x_masks())} "
                     f"x-masks on {hamiltonian.n_qubits} qubits")
    operator = hamiltonian.compile(reference.states)

    def objective(theta):
        return expectation(apply_circuit(reference, circuit, theta), operator)

    return objective


def sampled_energy_objective(
    hamiltonian: QubitHamiltonian, circuit: Circuit, shots: int, seed: int, groups=None,
):
    """Objective backed by measurement-group sampling from the Hamiltonian's Hartree-Fock state.

    Every evaluation draws fresh shots from a deterministic per-call seed,
    so a full optimization is reproducible for a fixed base seed: call k
    uses ``seed + 100003 k``, folded below 2**63. ``groups`` (by default
    ``group_commuting(hamiltonian)``) have their parity tables built once
    here. A sector state is measured on the register.
    """
    seed = checked_seed(seed)
    circuit, reference = _start(hamiltonian, circuit)
    if groups is None:
        groups = group_commuting(hamiltonian)
    tables = group_tables(hamiltonian, groups)
    counter = [0]

    def objective(theta):
        state = apply_circuit(reference, circuit, theta).on_register()
        call_seed = (seed + 100003 * counter[0]) % SEED_LIMIT
        counter[0] += 1
        return estimate_energy_sampled(state, hamiltonian, tables, shots, call_seed).energy

    return objective


def run_vqe(
    hamiltonian: QubitHamiltonian,
    circuit: Circuit,
    config: OptimizerConfig,
    mode: str = "exact",
    shots: int = 1024,
    n_restarts: int = 5,
    groups=None,
) -> VqeResult:
    """Full variational loop from the Hamiltonian's Hartree-Fock state (``_start``).

    Restarts rerun the optimizer from small seeded perturbations of the
    zero start (restart 0 starts exactly at zero) to dodge local minima;
    the best result is returned with all restart results retained.
    Sampled mode measures ``groups``, by default ``group_commuting(hamiltonian)``.
    """
    n_restarts = checked_int(n_restarts, "n_restarts", 1)
    if mode == "exact":
        objective = exact_energy_objective(hamiltonian, circuit)
    elif mode == "sampled":
        objective = sampled_energy_objective(hamiltonian, circuit, shots, config.seed, groups)
    else:
        raise ShapeError(f"unknown mode {mode!r}")

    d = circuit.n_parameters
    if d == 0:
        return _zero_dim_result(objective)

    results = []
    for restart in range(n_restarts):
        cfg = replace(config, seed=(config.seed + restart) % SEED_LIMIT)
        theta0 = np.zeros(d)
        if restart > 0:
            rng = np.random.default_rng((config.seed, restart))
            theta0 = theta0 + rng.normal(0.0, 0.1, size=d)
        results.append(minimize(objective, theta0, cfg))

    best = min(results, key=lambda r: r.final_energy)
    return replace(best, restart_results=tuple(results))
