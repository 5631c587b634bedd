"""The benchmark's tracer over the benchmark's own case sets.

perfbench/trace_layers.py wraps the package's public functions and
methods by name, and some of its hooks read what the wrapped function
returns.  A change to such a return type breaks only traced benchmark
runs, so each case set runs here once under the tracer.
"""

import pathlib
import sys
import time

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import cases  # noqa: E402
import trace_layers  # noqa: E402


@pytest.mark.parametrize("workload", ["reproduce", "search", "domains"])
def test_traced_cases_have_no_mismatch(workload):
    tracer = trace_layers.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        bad = {}
        for cid, (name, run) in enumerate(cases.workload(workload)):
            tracer.case = cid
            bad[name] = run(1)
        metrics = tracer.summary(t0, time.perf_counter())
    finally:
        tracer.uninstall()
    assert {name: b for name, b in bad.items() if b} == {}
    assert metrics["trace.spans"] > 0
