"""vqechem benchmark: time to checked energies on three fixed workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload h3-exchange --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``h3-exchange``, ``h2s-fci`` and
``h3-hea-sampled``. The seed makes the inputs (point order, and the scan
seed of ``h3-hea-sampled``); the library only receives the generated
manifests and FCIDUMP files.

A run repeats passes over the workload's points until the next pass would
end after ``--seconds`` (at least one pass). Every point's outputs are
checked; a point that raises or fails a check counts in ``failed``, as does a
pass whose final step (barrier or curve comparison) fails. The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``; the line before
it holds sample counts, percentiles, ``failed_frac`` and the environment.

Every bounded time is in reference seconds (``refclock``): wall time
scaled by how fast the core runs at that moment, measured by a fixed probe
kernel every 20 ms of CPU time. On a shared machine the core's speed
switches between two states a factor of about two apart, which moved
identical passes by up to 50% between runs in wall time and in CPU time
alike. Wall times are still measured and printed on the line before the
result, with the probes' share of the run.

``--trace 0`` reports the end-to-end metrics, measured untraced:

* ``setup_s``: median over fresh processes of process start to inputs
  ready (``import vqechem``, manifests, FCIDUMP text read and
  hash-checked), each timed against a child that only imports numpy;
* ``pass_s``: median time of one pass, including the final step;
* ``point_s.p50``: median time of one point (integrals to checked
  energies) over every point of every pass;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` spends half the time on untraced passes and half on traced
ones and reports the per-layer metrics of ``tracing.PER_LAYER`` (medians over
traced passes), including ``trace.overhead_s`` (traced minus untraced
``pass_s``). Spans go to ``.perfbench/spans-<workload>-seed<n>.json``.

Counts repeat exactly for a seed: a count that differs between passes, or
from an earlier run of the same code and seed (kept under ``.perfbench/``),
makes the run incorrect and is named on stderr.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"  # the plain single-threaded baseline; set before numpy loads

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from refclock import RefClock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_PROBES = 9
# Wall seconds of `python -c "import numpy"` on the fast state of the machine
# the baseline was recorded on (see refclock)
SETUP_REF_S = 0.125


def git_sha() -> str:
    """Commit of the checkout, read from .git without leaving it; 'none' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "none"
    return "unknown"


def source_digest(*dirs: Path) -> str:
    """sha256 over the files of ``dirs`` (default: the vqechem package)."""
    digest = hashlib.sha256()
    for directory in dirs or (SRC / "vqechem",):
        for path in sorted(directory.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


@dataclass
class PassResult:
    pass_s: float  # reference seconds, like point_s
    wall_s: float
    point_s: list
    point_wall_s: list
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # point label -> counts from results
    layer: dict = field(default_factory=dict)  # per-layer metrics of a traced pass
    missing: list = field(default_factory=list)  # expected boundaries never called


def run_pass(workload, tracer, clock, index: int) -> PassResult:
    """One timed pass over the workload's points and its final step, then checks."""
    outputs, errors, point_s, point_wall_s = {}, {}, [], []
    start, start_ref = time.perf_counter(), clock.now()
    for point in workload.points:
        tracer.point = f"{index}:{point.label}"
        clock.use(workload.probe_for(point))
        t0, r0 = time.perf_counter(), clock.now()
        try:
            outputs[point.label] = workload.run_point(point)
        except Exception as exc:  # a failing point is counted, the pass goes on
            errors[point.label] = f"{type(exc).__name__}: {exc}"
        point_s.append(clock.now() - r0)
        point_wall_s.append(time.perf_counter() - t0)
    tracer.point = f"{index}:final"
    final = final_error = None
    if not errors:
        try:
            final = workload.finish(outputs)
        except Exception as exc:
            final_error = f"final step: {type(exc).__name__}: {exc}"
    pass_s, wall_s = clock.now() - start_ref, time.perf_counter() - start

    result = PassResult(pass_s, wall_s, point_s, point_wall_s,
                        attempted=len(workload.points) + 1)
    with tracer.paused():
        for point in workload.points:
            if point.label in errors:
                result.problems.append(f"{point.label}: {errors[point.label]}")
                result.failed += 1
                continue
            problems, counts = workload.check_point(point, outputs[point.label])
            result.problems += problems
            result.failed += bool(problems)
            result.counts[point.label] = counts
        if errors:
            final_problems = ["final step skipped: a point failed"]
        elif final_error:
            final_problems = [final_error]
        else:
            final_problems = workload.check_finish(outputs, final)
        result.problems += final_problems
        result.failed += bool(final_problems)
    return result


def measure(workload, tracer, clock, seconds: float, traced: bool) -> list:
    """Passes until the next one would end after ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        tracer.reset()
        result = run_pass(workload, tracer, clock, len(passes))
        if traced:
            result.layer = tracer.pass_metrics(result.pass_s)
            result.missing = tracer.missing(workload.expected)
        passes.append(result)
        typical = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def setup_seconds(workload: str, seed: int) -> tuple:
    """Process start to inputs ready, in fresh processes.

    Set-up is process start-up and imports, which the probe kernel of
    ``refclock`` does not resemble: a slow core state costs set-up far less
    than it costs the probe. So each set-up child is timed against a
    reference child that only imports numpy, run just before and just after
    it on the same core: ``SETUP_REF_S`` times the ratio of the walls.
    Returns (median, scaled samples, wall samples).
    """
    setup = [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload, "--seed", str(seed)]
    reference = [sys.executable, "-c", "import numpy"]

    def wall(command):
        t0 = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        return time.perf_counter() - t0

    scaled, walls = [], []
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        before = wall(reference)
        for _ in range(SETUP_PROBES):
            walls.append(wall(setup))
            after = wall(reference)
            scaled.append(SETUP_REF_S * walls[-1] / ((before + after) / 2))
            before = after
    finally:
        os.sched_setaffinity(0, cores)
    return statistics.median(scaled), scaled, walls


def summary(values) -> dict:
    """Median plus the highest of p99/p95/p90/p75 with ten samples beyond it."""
    out = {"p50": statistics.median(values), "n": len(values)}
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def count_mismatches(passes, traced_counts, key: str) -> list:
    """Counts that differ between passes or from an earlier run (same code and seed)."""
    flat = [{f"{label}.{name}": value for label, counts in p.counts.items()
             for name, value in counts.items()} for p in passes]
    differing = [f"result.{name}" for other in flat[1:] for name in set(other) | set(flat[0])
                 if other.get(name) != flat[0].get(name)]
    current = {"result": flat[0], "trace": traced_counts}
    path = STATE / f"counts-{key}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        for section in ("result", "trace"):
            if current[section] and earlier.get(section):
                a, b = current[section], earlier[section]
                differing += [f"{section}.{name} (earlier run)" for name in set(a) | set(b)
                              if a.get(name) != b.get(name)]
        current = {s: current[s] or earlier.get(s) for s in current}
    path.write_text(json.dumps(current, indent=1, sort_keys=True))
    return sorted(set(differing))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "vqechem" / "__init__.py").is_file():  # never measure an installed copy
        print(f"perfbench: no vqechem package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        return 0

    STATE.mkdir(exist_ok=True)
    clock = RefClock(workload.probe_for(workload.points[0]))
    setup_s, setup_scaled, setup_wall = setup_seconds(args.workload, args.seed)
    tracer = tracing.Tracer(clock.now)
    run_start = time.perf_counter()
    clock.start()
    try:
        if args.trace:
            untraced = measure(workload, tracer, clock, args.seconds / 2, traced=False)
            tracer.install()
            try:
                traced = measure(workload, tracer, clock, args.seconds / 2, traced=True)
            finally:
                tracer.uninstall()
        else:
            untraced = measure(workload, tracer, clock, args.seconds, traced=False)
            traced = []
    finally:
        clock.stop()
    run_wall = time.perf_counter() - run_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = untraced + traced

    pass_s = [p.pass_s for p in untraced]
    point_s = [t for p in untraced for t in p.point_s]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]

    layer = {}
    if traced:
        counts = {name: traced[0].layer[name] for name in tracing.COUNT_METRICS}
        differing = [f"trace.{name}" for p in traced[1:] for name in tracing.COUNT_METRICS
                     if p.layer[name] != counts[name]]
        for name in tracing.PER_LAYER:
            if name.startswith("trace."):
                continue
            layer[name] = statistics.median(p.layer[name] for p in traced)
        missing = sorted({name for p in traced for name in p.missing})
        layer["trace.overhead_s"] = (statistics.median(p.pass_s for p in traced)
                                     - statistics.median(pass_s))
        layer["trace.missing_spans"] = len(missing)
        tracer.write(STATE / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        counts, differing, missing = {}, [], []
    key = f"{source_digest(SRC / 'vqechem', HERE)[:16]}-{args.workload}-seed{args.seed}"
    differing += count_mismatches(passes, counts, key)
    for name in differing:
        print(f"perfbench: count differs: {name}", file=sys.stderr)
    for msg in problems:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    for name in missing:
        print(f"perfbench: missing span: {name} recorded no call", file=sys.stderr)

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_s": summary(pass_s), "passes_s": pass_s, "point_s": summary(point_s),
        "passes_wall_s": [p.wall_s for p in untraced],
        "point_wall_s": summary([t for p in untraced for t in p.point_wall_s]),
        "setup_s": {"scaled": setup_scaled, "wall": setup_wall},
        "clock": {"probes": len(clock.durations),
                  "probe_ms": summary([1e3 * d for d in clock.durations]),
                  "probe_share_of_wall": clock.probe_s / run_wall},
        "failed_frac": failed / attempted,
        "environment": environment(),
    }
    if traced:
        shares = [p.layer["layer_share"] for p in traced]
        detail["layer_share"] = {name: statistics.median(s.get(name, 0.0) for s in shares)
                                 for name in tracing.LAYERS}
        detail["missing_spans"] = missing
    print(json.dumps({"detail": detail}))

    if args.trace:
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, (unit, _) in tracing.PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": statistics.median(pass_s), "unit": "s"},
            "point_s.p50": {"value": statistics.median(point_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not problems and not differing,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
