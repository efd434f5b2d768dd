"""Run one benchmark workload on one seed and print its metrics.

    python3 perfbench/run.py --workload zf_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root (the package is imported from ``src``; nothing
is installed).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it records the environment and any problems.

The measuring worker and the set-up probes are separate processes with BLAS
pinned to one thread.  ``setup_s`` is the median, over the worker and
SETUP_PROBES set-up-only processes, of the time from process start to the
end of set-up (imports and an untimed warm-up slice), each scaled to the
reference host speed by calibration slices run right after it (see
calibration.py).  Half the probes run before the worker and half after it.
``wall_s`` and ``items_per_s`` are scaled the same way, by slices
interleaved with the timed rounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0  # the whole run, set-up probes included
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def spawn_worker(worker_args: list[str], deadline: float) -> tuple[float, float, list[str]]:
    """Run worker.py to completion; return its set-up time, the host-speed
    factor measured right after set-up, and its stdout lines."""
    env = {**os.environ, **CHILD_ENV}
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *worker_args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not finish within {TIME_LIMIT_S:g} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    lines = out.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("READY ")]
    scale = [float(line.split()[1]) for line in lines if line.startswith("SCALE ")]
    if len(ready) != 1 or len(scale) != 1:
        raise BenchError("worker did not report the end of set-up")
    return ready[0] - start, scale[0], lines


def git_rev() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "micdof" / "__init__.py").is_file():
        print(f"error: no micdof package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        probes = 0 if args.trace else SETUP_PROBES // 2
        setups = [spawn_worker([*worker_args, "--setup-only"], deadline)[:2]
                  for _ in range(probes)]
        *setup, lines = spawn_worker(worker_args, deadline)
        setups.append(tuple(setup))
        setups += [spawn_worker([*worker_args, "--setup-only"], deadline)[:2]
                   for _ in range(probes)]
        result = json.loads(lines[-1])
    except (BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setup_s = statistics.median([seconds * scale for seconds, scale in setups])
    values = dict(result["metrics"], setup_s=setup_s)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": result["rounds"],
        "round_s": result["round_s"],
        "scale": result["scale"],
        "setup_samples_s": [seconds for seconds, _ in setups],
        "setup_scales": [scale for _, scale in setups],
        "problems": len(result["problems"]),
        "env": dict(result["env"], git_rev=git_rev()),
    }))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
