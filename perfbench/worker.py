"""One benchmark process: set up, run timed rounds of one workload, report.

Started by run.py.  Prints ``READY <time.monotonic()>`` once set-up (imports
plus an untimed warm-up slice on a seed no timed round uses) is done, then
``SCALE <factor>`` from SETUP_SLICES calibration slices run right after it
(see calibration.py), then, unless ``--setup-only``, one JSON line with the
run's results.
"""

import os

# BLAS must be single-threaded before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from calibration import Calibrator  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WARMUP_ROUND, WORKLOADS, round_seed  # noqa: E402


SETUP_SLICES = 16  # calibration slices right after set-up, to scale setup_s


def _timed(fn, *args):
    """Run one round; an exception is reported and yields None."""
    start = time.perf_counter()
    try:
        out = fn(*args)
    except Exception:
        traceback.print_exc()
        out = None
    return out, time.perf_counter() - start


class Run:
    """Rounds, item counts and problems of one measured run."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.last_output = None
        self.round_s: list[float] = []
        self.scale = 1.0  # host-speed factor of the untraced run

    def record(self, k: int, output) -> bool:
        """Check one round's output; False when the round raised."""
        self.rounds += 1
        self.attempted += self.workload.items
        if output is None:
            self.failed += self.workload.items
            self.problems.append(f"round {k} raised")
            return False
        verdict = self.workload.check(output)
        self.failed += verdict.failed
        self.problems += [f"round {k}: {p}" for p in verdict.problems]
        self.last_output = output
        return True

    def negative_controls(self) -> None:
        """Every control must make the workload's check report a problem."""
        if self.last_output is None:
            return
        for label, verdict in self.workload.controls(self.last_output):
            if not verdict.problems:
                self.problems.append(f"negative control passed the check: {label}")
            print(f"negative control '{label}': {'; '.join(verdict.problems) or 'PASSED'}",
                  file=sys.stderr)


def measure(workload, seed: int, seconds: float) -> tuple[Run, dict]:
    """Timed rounds until ``seconds`` have passed; end-to-end metrics.

    Calibration slices run every SLICE_INTERVAL_S throughout.  A round's work
    time leaves out the slices that ran inside it, and ``wall_s`` is the mean
    work time scaled to the reference host speed by the slices' mean time
    over the whole run (see calibration.py).
    """
    run = Run(workload)
    calibrator = Calibrator()
    work: list[float] = []
    start = time.perf_counter()
    k = 0
    with calibrator.interleaved():
        while not work or time.perf_counter() - start < seconds:
            before = calibrator.seconds
            output, elapsed = _timed(workload.run, round_seed(seed, k))
            work.append(elapsed - (calibrator.seconds - before))
            if not run.record(k, output):
                break
            k += 1
    run.round_s = work
    run.scale = calibrator.scale()
    wall = statistics.fmean(work) * run.scale
    return run, {
        "wall_s": wall,
        "items_per_s": workload.items / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(workload, seed: int, seconds: float) -> tuple[Run, dict, Tracer]:
    """Pairs of an untraced and a traced round on the same seed, in
    alternating order, until ``seconds`` have passed.  The traced output must
    equal the untraced one exactly (the replica check)."""
    run = Run(workload)
    tracer = Tracer()
    plain_wall = traced_wall = 0.0
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        round_in = round_seed(seed, k)
        tracer.trace_id = k
        outputs = {}
        for traced in (False, True) if k % 2 == 0 else (True, False):
            if traced:
                with tracer.counting_numpy():
                    outputs[traced], elapsed = _timed(
                        tracer.call, "round", workload.traced, tracer, round_in)
                traced_wall += elapsed
            else:
                outputs[traced], elapsed = _timed(workload.run, round_in)
                plain_wall += elapsed
        recorded = [run.record(k, out) for out in outputs.values()]
        k += 1
        if not all(recorded):
            break
        if outputs[True] != outputs[False]:
            run.problems.append(f"round {k - 1}: traced output differs from untraced")
    metrics = layer_metrics(tracer, k, traced_wall, plain_wall)
    return run, metrics, tracer


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    workload.warmup(round_seed(args.seed, WARMUP_ROUND))
    gc.collect()
    print(f"READY {time.monotonic()!r}", flush=True)
    calibrator = Calibrator()
    for _ in range(SETUP_SLICES):
        calibrator.run_slice()
    print(f"SCALE {calibrator.scale()!r}", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        run, metrics, tracer = measure_traced(workload, args.seed, args.seconds)
        tracer.write_spans(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    else:
        run, metrics = measure(workload, args.seed, args.seconds)
    run.negative_controls()
    print(json.dumps({
        "rounds": run.rounds,
        "round_s": run.round_s,
        "scale": run.scale,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": metrics,
        "env": environment(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
