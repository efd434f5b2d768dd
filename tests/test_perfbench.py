import importlib.util
import sys
from pathlib import Path


def test_benchmark_workloads_load_against_the_library(monkeypatch):
    # Loading perfbench/workloads.py runs no workload, but it imports every
    # micdof name the benchmark calls, so removing one fails here.  The
    # module is registered while it loads, as its dataclasses look it up.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert {"zf_sweep", "exact_verify", "rate_mc"} <= set(workloads.WORKLOADS)
