import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    # The module is registered while it loads, as its dataclasses look it up.
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_workloads_load_against_the_library(monkeypatch):
    # Loading perfbench/workloads.py runs no workload, but it imports every
    # micdof name the benchmark calls, so removing one fails here.
    workloads = _load(monkeypatch, "workloads")
    assert {"zf_sweep", "exact_verify", "rate_mc"} <= set(workloads.WORKLOADS)


def test_exact_verify_replica_agrees_with_verify(monkeypatch):
    # The traced replica reaches the verdicts through inner_region,
    # outer_region and Region2D, while verify compares the inner and outer
    # cap triples; the two must give the same result, and each control must
    # report a problem.
    workloads, tracing = _load(monkeypatch, "workloads"), _load(monkeypatch, "tracing")
    bench = workloads.ExactVerify()
    result = bench.run(0)
    assert result == workloads.VerifyResult(status=0, checks=4433, failures=())
    assert bench.traced(tracing.Tracer(), 0) == result
    controls = list(bench.controls(result))
    assert controls and all(verdict.problems for _, verdict in controls)
