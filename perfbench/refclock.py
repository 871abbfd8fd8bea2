"""A clock in reference seconds: elapsed time corrected for the core's current speed.

On the shared machines the benchmark runs on, the same single-threaded
work takes up to twice as long from one minute to the next: the core
switches between a fast and a slow state every few seconds, and the slow
state shows neither as steal time nor as lost CPU time, so neither wall
time nor CPU time is steady. Over two and a half minutes of repeats, the
time of one fixed H3 point varied by a factor of 1.95; scaled by a probe of
this kind, the same repeats varied by a factor of 1.12.

:class:`RefClock` runs a short fixed probe kernel (a Pauli-like
permute, sign, add and normalise on complex vectors, through numpy and the
interpreter as the library's inner loops are) every ``PERIOD_S`` of process
CPU time, from a ``SIGPROF`` handler. The wall time between two probes is
scaled by the probe's reference duration divided by the median of the last
``WINDOW`` probe durations, and the probes' own time is left out. Work on a
core where the probe takes its reference duration reads its wall time; on a
core running at half that speed it reads the same.

The slow state costs small vectors more than large ones (a factor of 1.9
on 64 and 256 amplitudes, 1.5 on 4096), so the probe works on vectors as
long as the state of the point being timed (:class:`Probe`,
:meth:`RefClock.use`).

The probe is benchmark code, not library code, so a change to the library
moves only the work between probes; the clock's scale stays the machine's.
The base is wall time, not CPU time, so work moved to another thread or
process still counts. Everything runs on one thread.
"""

from __future__ import annotations

import functools
import signal
import statistics
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.02  # process CPU time between probes
WINDOW = 3  # probes in the running median
WARMUP = 50  # probe runs before the clock starts


@dataclass(frozen=True)
class Probe:
    """The probe kernel: ``iterations`` steps on a vector of each ``length``.

    ``ref_s`` is its duration on the fast state of the machine the baseline
    was recorded on (Intel Xeon, KVM guest, 2 vCPUs, numpy 2.4, one BLAS
    thread), so a reference second is a second of that core in that state.
    """

    parts: tuple  # ((vector length, iterations), ...)
    ref_s: float

    def run(self) -> float:
        """Wall seconds of one run of the kernel."""
        vectors = _vectors(self.parts)
        start = time.perf_counter()
        for state, flip, sign, iterations in vectors:
            v = state
            for _ in range(iterations):
                w = sign * v[flip]
                v = v + 1e-3 * w
                v = v / np.linalg.norm(v)
        return time.perf_counter() - start


@functools.cache
def _vectors(parts) -> tuple:
    out = []
    for length, iterations in parts:
        rng = np.random.default_rng(length)
        index = np.arange(length)
        out.append((rng.standard_normal(length) + 1j * rng.standard_normal(length),
                    index ^ 0b1011, (-1.0) ** np.bitwise_count(index & 0b0110), iterations))
    return tuple(out)


class RefClock:
    """Reference seconds of work done while started; see the module docstring."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.durations: list = []  # every probe's wall seconds
        self.probe_s = 0.0  # wall seconds spent in probes
        self._recent: deque = deque(maxlen=WINDOW)
        # (reference seconds up to mark, perf_counter mark, scale), replaced as
        # one object so that now() never reads a half-updated state
        self._state = (0.0, time.perf_counter(), 1.0)
        self._in_probe = False
        self._previous_handler = None
        self._warm: set = set()  # probes already warmed up
        self.running = False

    def start(self):
        self._prime()
        acc, _, _ = self._state
        self._state = (acc, time.perf_counter(), self._scale())
        self._previous_handler = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        self.running = True

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous_handler)
        self._state = (self.now(), time.perf_counter(), self._state[2])
        self.running = False

    def now(self) -> float:
        """Reference seconds of work so far (probe time excluded)."""
        acc, mark, scale = self._state
        if not self.running:
            return acc
        return acc + (time.perf_counter() - mark) * scale

    def use(self, probe: Probe):
        """Scale by ``probe`` from now on; switching counts as probe time."""
        if probe == self.probe:
            return
        self.probe = probe
        if not self.running:
            return
        self._in_probe = True  # no tick while the window refills
        try:
            acc, mark, scale = self._state
            begin = time.perf_counter()
            self._prime()
            self.probe_s += time.perf_counter() - begin
            self._state = (acc + (begin - mark) * scale, time.perf_counter(), self._scale())
        finally:
            self._in_probe = False

    def _prime(self):
        if self.probe not in self._warm:
            for _ in range(WARMUP):
                self.probe.run()
            self._warm.add(self.probe)
        self._recent.clear()
        for _ in range(WINDOW):
            self._recent.append(self.probe.run())

    def _scale(self) -> float:
        return self.probe.ref_s / statistics.median(self._recent)

    def _tick(self, signum, frame):
        if self._in_probe:
            return
        self._in_probe = True
        try:
            acc, mark, scale = self._state
            begin = time.perf_counter()
            seconds = self.probe.run()
            self.durations.append(seconds)
            self.probe_s += seconds
            self._recent.append(seconds)
            self._state = (acc + (begin - mark) * scale, time.perf_counter(), self._scale())
        finally:
            self._in_probe = False
