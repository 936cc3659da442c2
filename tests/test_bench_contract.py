"""The benchmark's workloads, run once each at small size, with their own checks.

bench/run.py --trace 1 requires every function named in a workload's
``spans`` to be called through the module that binds it.  The span lists
live only in bench/workloads.py; this test reads them from there.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("dcsparse_bench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # dataclasses look their module up here
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_benchmark_spans_are_called(name, tmp_path, count_calls):
    # The same seed and size as bench/test_bench.py.
    workload = workloads.WORKLOADS[name]
    calls = {}
    for span in workload.spans:
        module, _, attr = span.rpartition(".")
        calls[span] = count_calls(importlib.import_module(module), (attr,))
    out = workload.run(workloads.Plan(seed=3, cells=1, size="small", workdir=tmp_path))
    assert [span for span, counts in calls.items() if not any(counts.values())] == []
    assert out.attempted >= 1 and out.failed == 0 and out.correct, out.checks
