"""One pass of each benchmark workload passes the benchmark's own output checks."""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return workloads


@pytest.mark.parametrize("name", ["h3-exchange", "h2s-fci", "h3-hea-sampled"])
def test_one_pass_passes_the_benchmark_checks(workloads, name):
    workload = workloads.WORKLOADS[name](seed=1)
    outputs = {}
    for point in workload.points:
        outputs[point.label] = workload.run_point(point)
        problems, counts = workload.check_point(point, outputs[point.label])
        assert problems == [], problems
        assert all(isinstance(value, int) for value in counts.values())
    final = workload.finish(outputs)
    assert workload.check_finish(outputs, final) == []
