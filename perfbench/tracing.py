"""Spans and counters around vqechem's public functions, from outside the library.

A :class:`Tracer` replaces module attributes at their call sites (for
example ``vqechem.optimize.expectation``, which the optimizer's objective
looks up on every evaluation) with wrappers that record a span or bump a
counter, and puts the originals back afterwards. No library file changes.

Spans are kept in memory as (name, start, end, parent, point, self) and
written out when the run ends. A span's self time is its duration minus
the durations of its child spans; spans nest strictly because everything
runs on one thread. Times come from the clock the tracer is given, the
one every timing of the benchmark uses (``refclock.RefClock.now``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
from collections import Counter
from dataclasses import dataclass

import numpy as np

SPAN, COUNT = "span", "count"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    point: str
    self_s: float


def electron_count(amplitudes) -> float:
    """<N> of a Fock-space state from the popcount of each basis index."""
    probs = np.abs(np.asarray(amplitudes)) ** 2
    popcount = np.bitwise_count(np.arange(probs.shape[0]))
    return float(probs @ popcount / probs.sum())


# Hooks read a wrapped call's arguments, result and span (None for a count
# wrapper) and update counters.
def _note_electrons(tracer, result, args, span):
    tracer.electrons = result.n_electrons


def _rhf_iterations(tracer, result, args, span):
    tracer.counts["integrals.rhf_iterations"] += result.n_iterations


def _pauli_terms(tracer, result, args, span):
    tracer.counts["fermions.pauli_terms"] += result.n_terms


def _ansatz_gates(tracer, result, args, span):
    tracer.counts["ansatz.gates"] += len(result.gates)


def _vqe_evals(tracer, result, args, span):
    restarts = result.restart_results or (result,)
    tracer.counts["optimize.evals"] += sum(r.n_function_evaluations for r in restarts)
    tracer.counts["optimize.useful_evals"] += result.n_function_evaluations


def _gates_applied(tracer, result, args, span):
    tracer.counts["simulator.gates_applied"] += len(args[1].gates)


def _shots(tracer, result, args, span):
    tracer.counts["measurement.shots"] += result.shots_used


def _groups(tracer, result, args, span):
    tracer.counts["measurement.groups"] += len(result)


def _solve(tracer, result, args, span):
    amplitudes = result.eigenvector.amplitudes
    tracer.counts["exactdiag.dim"] += amplitudes.shape[0]
    tracer.residual_max = max(tracer.residual_max, result.residual_norm)
    tracer.solves.append((args[0].n_qubits, span.end - span.start))
    if abs(electron_count(amplitudes) - tracer.electrons) > 1e-6:
        tracer.counts["exactdiag.wrong_sector"] += 1


def _pauli_bytes(tracer, result, args, span):
    # one complex128 read and one written per amplitude
    tracer.counts["paulis.pauli_action.bytes_computed"] += 32 * args[1].size


# The explicit wrapper list: (vqechem.<module>.<function>, kind, modules whose
# attribute is replaced, hook). Every call site the workloads reach is named.
BOUNDARIES = (
    ("workflows.integrals_for_point", SPAN, ("workflows",), _note_electrons),
    ("workflows.run_single_point", SPAN, ("workflows",), None),
    ("workflows.activation_energy", SPAN, ("workflows",), None),
    ("workflows.compare_curves", SPAN, ("workflows",), None),
    ("fcidump.parse_fcidump", SPAN, ("workflows",), None),
    ("integrals.compute_ao_integrals", SPAN, ("workflows",), None),
    ("integrals.run_rhf", SPAN, ("workflows",), _rhf_iterations),
    ("integrals.transform_to_mo", SPAN, ("workflows",), None),
    ("integrals.freeze_core", SPAN, ("workflows",), None),
    ("fermions.build_second_quantized", SPAN, ("workflows", "fermions"), None),
    ("fermions.jordan_wigner", SPAN, ("workflows", "fermions"), _pauli_terms),
    ("ansatz.build_uccsd", SPAN, ("workflows",), _ansatz_gates),
    ("ansatz.build_hardware_efficient", SPAN, ("workflows",), _ansatz_gates),
    ("optimize.run_vqe", SPAN, ("workflows",), _vqe_evals),
    ("simulator.apply_circuit", SPAN, ("optimize",), _gates_applied),
    ("simulator.expectation", SPAN, ("optimize",), None),
    ("measurement.estimate_energy_sampled", SPAN, ("optimize",), _shots),
    ("measurement.group_commuting", SPAN, ("workflows", "optimize", "measurement"), _groups),
    ("exactdiag.ground_state_energy", SPAN, ("workflows", "exactdiag"), _solve),
    ("exactdiag.apply_hamiltonian", COUNT, ("exactdiag",), None),
    ("paulis.pauli_action", COUNT, ("simulator", "exactdiag"), _pauli_bytes),
)

LAYERS = ("integrals", "fcidump", "fermions", "paulis", "ansatz", "simulator",
          "measurement", "optimize", "exactdiag", "workflows")

# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
PER_LAYER = {
    "simulator.expectation_s": ("s", "pass_s, point_s.p50 on h3-exchange"),
    "simulator.expectation.calls": ("count", "pass_s on h3-exchange"),
    "simulator.apply_circuit_s": ("s", "pass_s on h3-exchange; a little on h3-hea-sampled"),
    "simulator.apply_circuit.calls": ("count", "pass_s on h3-exchange and h3-hea-sampled"),
    "simulator.gates_applied": ("count", "pass_s on h3-exchange"),
    "simulator.ms_per_eval": ("ms", "point_s.p50 on h3-exchange"),
    "paulis.pauli_action.calls": ("count", "pass_s on h3-exchange and h2s-fci"),
    "paulis.pauli_action.bytes_computed": ("B", "pass_s on h3-exchange and h2s-fci"),
    "exactdiag.solve_s": ("s", "pass_s on h2s-fci; ~4% of point_s.p50 on h3-exchange"),
    "exactdiag.solve_s.q8": ("s", "point_s.p50 on h2s-fci"),
    "exactdiag.solve_s.q12": ("s", "pass_s and peak_rss_mb on h2s-fci"),
    "exactdiag.matvecs": ("count", "pass_s on h2s-fci"),
    "exactdiag.dim": ("count", "pass_s and peak_rss_mb on h2s-fci"),
    "exactdiag.residual_max": ("Ha", "none (correctness of the oracle)"),
    "exactdiag.wrong_sector": ("count", "none (falls to 0 with the sector fix)"),
    "measurement.estimate_s": ("s", "pass_s on h3-hea-sampled"),
    "measurement.estimate.calls": ("count", "pass_s on h3-hea-sampled"),
    "measurement.shots": ("count", "pass_s on h3-hea-sampled"),
    "measurement.group_s": ("s", "pass_s on h2s-fci (12 qubits); under 1% elsewhere"),
    "measurement.groups": ("count", "pass_s on h3-hea-sampled"),
    "optimize.evals": ("count", "pass_s on h3-exchange and h3-hea-sampled"),
    "optimize.evals_per_s": ("1/s", "pass_s on h3-exchange and h3-hea-sampled"),
    "optimize.useful_eval_frac": ("ratio", "pass_s on h3-exchange"),
    "optimize.self_s": ("s", "pass_s on h3-exchange and h3-hea-sampled"),
    "fermions.assemble_s": ("s", "pass_s on h2s-fci (~1%)"),
    "fermions.pauli_terms": ("count", "pass_s on h2s-fci"),
    "integrals.self_s": ("s", "point_s.p50 on h3-exchange (under 2%)"),
    "integrals.rhf_iterations": ("count", "point_s.p50 on h3-exchange"),
    "fcidump.parse_s": ("s", "setup_s and point_s.p50 on h2s-fci (under 2%)"),
    "ansatz.build_s": ("s", "none (kept so that work moved here shows)"),
    "ansatz.gates": ("count", "pass_s on h3-exchange"),
    "workflows.self_s": ("s", "none (kept so that work moved here shows)"),
    "trace.overhead_s": ("s", "none (traced pass_s minus untraced pass_s)"),
    "trace.missing_spans": ("count", "none (expected boundaries that recorded no call)"),
}

# Counts must repeat exactly across passes and runs of one seed.
COUNT_METRICS = tuple(
    name for name, (unit, _) in PER_LAYER.items()
    if unit in ("count", "B") and name != "trace.missing_spans"
)
# Count metrics whose counter has another name.
_COUNTER_OF = {
    "exactdiag.matvecs": "exactdiag.apply_hamiltonian.calls",
    "measurement.estimate.calls": "measurement.estimate_energy_sampled.calls",
}

_SPAN_SUMS = {
    "simulator.expectation_s": ("simulator.expectation",),
    "simulator.apply_circuit_s": ("simulator.apply_circuit",),
    "exactdiag.solve_s": ("exactdiag.ground_state_energy",),
    "measurement.estimate_s": ("measurement.estimate_energy_sampled",),
    "measurement.group_s": ("measurement.group_commuting",),
    "optimize.self_s": ("optimize.run_vqe",),
    "fermions.assemble_s": ("fermions.build_second_quantized", "fermions.jordan_wigner"),
    "integrals.self_s": ("integrals.compute_ao_integrals", "integrals.run_rhf",
                         "integrals.transform_to_mo", "integrals.freeze_core"),
    "fcidump.parse_s": ("fcidump.parse_fcidump",),
    "ansatz.build_s": ("ansatz.build_uccsd", "ansatz.build_hardware_efficient"),
    "workflows.self_s": ("workflows.integrals_for_point", "workflows.run_single_point",
                         "workflows.activation_energy", "workflows.compare_curves"),
}


class Tracer:
    """Installs the wrappers of :data:`BOUNDARIES` and collects one pass's data."""

    def __init__(self, clock):
        self.clock = clock  # () -> seconds
        self.spans: list = []
        self.point = ""
        self.active = False
        self._open: list = []  # [span index, child seconds] of each open span
        self._installed: list = []
        self.reset()

    def reset(self):
        """Start a new pass: counters and per-solve data restart from zero."""
        self.first_span = len(self.spans)
        self.counts = Counter()
        self.electrons = 0
        self.residual_max = 0.0
        self.solves: list = []  # (qubits, seconds) of each Lanczos solve

    def install(self):
        for name, kind, sites, hook in BOUNDARIES:
            attr = name.split(".", 1)[1]
            for site in sites:
                module = importlib.import_module(f"vqechem.{site}")
                original = getattr(module, attr, None)
                if original is None:  # call site gone: shows as a missing span
                    continue
                wrapper = self._span(name, original, hook) if kind == SPAN else \
                    self._count(name, original, hook)
                setattr(module, attr, wrapper)
                self._installed.append((module, attr, original))
        self.active = True

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()
        self.active = False

    @contextlib.contextmanager
    def paused(self):
        """Calls made here (the benchmark's own checks) are not traced."""
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def _span(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            index = len(tracer.spans)
            parent = tracer._open[-1][0] if tracer._open else -1
            tracer.spans.append(None)
            frame = [index, 0.0]
            tracer._open.append(frame)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._open.pop()
                if tracer._open:
                    tracer._open[-1][1] += end - start
                span = Span(name, start, end, parent, tracer.point, end - start - frame[1])
                tracer.spans[index] = span
            if hook is not None:
                hook(tracer, result, args, span)
            return result

        return wrapped

    def _count(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if tracer.active:
                tracer.counts[name + ".calls"] += 1
                if hook is not None:
                    hook(tracer, None, args, None)
            return fn(*args, **kwargs)

        return wrapped

    def pass_metrics(self, pass_s: float) -> dict:
        """Per-layer metrics of the pass since the last :meth:`reset`."""
        spans = self.spans[self.first_span:]
        self_s = Counter()
        for span in spans:
            self_s[span.name] += span.self_s
        c = self.counts
        out = {name: sum((self_s[s] for s in names), 0.0) for name, names in _SPAN_SUMS.items()}
        for name in COUNT_METRICS:
            out[name] = c[_COUNTER_OF.get(name, name)]
        evals = c["optimize.evals"]
        vqe_s = sum(s.end - s.start for s in spans if s.name == "optimize.run_vqe")
        sim_s = out["simulator.expectation_s"] + out["simulator.apply_circuit_s"]
        out["simulator.ms_per_eval"] = 1e3 * sim_s / evals if evals else 0.0
        out["optimize.evals_per_s"] = evals / vqe_s if vqe_s else 0.0
        out["optimize.useful_eval_frac"] = c["optimize.useful_evals"] / evals if evals else 0.0
        out["exactdiag.residual_max"] = self.residual_max
        for q in (8, 12):
            solves = [seconds for n, seconds in self.solves if n == q]
            out[f"exactdiag.solve_s.q{q}"] = statistics.median(solves) if solves else 0.0
        layer_s = Counter()
        for name, seconds in self_s.items():
            layer_s[name.split(".", 1)[0]] += seconds
        out["layer_share"] = {layer: layer_s[layer] / pass_s for layer in LAYERS if layer_s[layer]}
        return out

    def missing(self, expected) -> list:
        """Expected boundaries that recorded no call in this pass."""
        return sorted(name for name in expected if not self.counts[name + ".calls"])

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.point, s.self_s]
                       for s in self.spans], fh)
