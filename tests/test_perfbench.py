import hashlib
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
    # The traced replica reaches the verdicts through the Caps that
    # inner_region and outer_region return, compared by regions_equal and
    # summed by sum_dof_lp, while verify compares the inner and outer cap
    # triples; the two must give the same result, and each control must
    # report a problem.
    workloads, tracing = _load(monkeypatch, "workloads"), _load(monkeypatch, "tracing")
    bench = workloads.ExactVerify()
    result = bench.run(0)
    assert result == workloads.VerifyResult(status=0, checks=4433, failures=())
    assert bench.traced(tracing.Tracer(), 0) == result
    controls = list(bench.controls(result))
    assert controls and all(verdict.problems for _, verdict in controls)


def test_rate_mc_seeded_outputs_are_a_known_answer(monkeypatch):
    # rate_mc's cases and cooperation configs are not exercised elsewhere with
    # these seeds; the repr of a round pins every rate, slope and report.
    workloads = _load(monkeypatch, "workloads")
    expected = {
        3: "0cdb0e32b7d424ce3cb467f071a9ad1f9ecf0d51a7f7b8b3fceba7aad50627e4",
        21: "f389143e3a78cb8eb4f65a0749793e3d653e37a1693ca76d419643387dbc0bc4",
        58: "85e1f2660ba7fcfb5765cb71441614e6f7e724567a2509adffe62b4a7dcf9140",
    }
    bench = workloads.RateMc()
    for seed, digest in expected.items():
        assert hashlib.sha256(repr(bench.run(seed)).encode()).hexdigest() == digest, seed


def test_zf_sweep_replica_agrees_with_its_run(monkeypatch):
    # The traced replica builds and judges one scheme at a time, where run
    # judges batches; a round of each must give the same report.  Counts
    # 1..2 keep it short.
    workloads, tracing = _load(monkeypatch, "workloads"), _load(monkeypatch, "tracing")
    bench = workloads.ZfSweep()
    bench.MAX_ANTENNAS = 2
    report = bench.run(5)
    assert report.total_trials == 1290
    assert bench.traced(tracing.Tracer(), 5) == report


def test_rate_mc_replica_agrees_with_its_run(monkeypatch):
    # The traced replica evaluates rates one (trial, rho) at a time.
    workloads, tracing = _load(monkeypatch, "workloads"), _load(monkeypatch, "tracing")
    bench = workloads.RateMc()
    assert bench.traced(tracing.Tracer(), 5) == bench.run(5)
