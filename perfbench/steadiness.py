"""Measure the benchmark's own run-to-run spread on one commit.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/steadiness.json

Runs two sets (A and B) of ``--runs`` untraced runs of every workload in
BENCHMARK.json at its ``run_seconds``, each run on its own seed, alternating
which set goes first.  For every end-to-end metric
it records each set's values, median and quartiles (``statistics.quantiles``
with n=4), the interquartile range as a share of the median, and how far
set B's median moved from set A's in the metric's worse direction.  The
record is rewritten after every run, so an interrupted measurement keeps
what it has.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SET_SEEDS = {"A": 101, "B": 201}  # run i of a set uses seed SET_SEEDS[set] + i
UNSCALED = ("unscaled_setup_s", "unscaled_wall_s")


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One untraced run: its result line and the line before it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    details, result = map(json.loads, proc.stdout.splitlines()[-2:])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} failed its checks: {proc.stderr}")
    return result, details


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median}


def summary(spec: dict, raw: dict) -> dict:
    """Per workload and metric: each set's summary and B's move against A.
    The unscaled times (no host-speed calibration) have no bound and are
    kept to show what the calibration removes."""
    metrics = spec["end_to_end"] + [
        {"name": name, "better": "lower", "bound": None} for name in UNSCALED
    ]
    out = {}
    for workload, sets in raw.items():
        out[workload] = {}
        for metric in metrics:
            name = metric["name"]
            per_set = {s: [r[name] for r in runs] for s, runs in sets.items()}
            entry = {"bound": metric["bound"]}
            for s, values in per_set.items():
                if len(values) >= 2:
                    entry[s] = summarize(values)
            if "A" in entry and "B" in entry:
                moved = entry["B"]["median"] / entry["A"]["median"] - 1.0
                entry["b_worse_than_a"] = moved if metric["better"] == "lower" else -moved
            out[workload][name] = entry
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    raw = {w: {s: [] for s in SET_SEEDS} for w in workloads}
    runs = []
    record = {"run_seconds": seconds, "set_seeds": SET_SEEDS,
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    for i in range(args.runs):
        order = "AB" if i % 2 == 0 else "BA"
        for workload in workloads:
            for s in order:
                result, details = run_once(workload, SET_SEEDS[s] + i, seconds)
                values = {k: v["value"] for k, v in result["metrics"].items()}
                values["unscaled_setup_s"] = statistics.median(details["setup_samples_s"])
                values["unscaled_wall_s"] = statistics.fmean(details["round_s"])
                raw[workload][s].append(values)
                runs.append({"set": s, **details, "metrics": values})
                print(f"{workload} set {s} seed {SET_SEEDS[s] + i}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
                record["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
                record["summary"] = summary(spec, raw)
                record["runs"] = runs
                args.out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, metrics in record["summary"].items():
        for name, entry in metrics.items():
            cells = [f"{s}: median {entry[s]['median']:.4g} iqr {entry[s]['iqr_share']:.1%}"
                     for s in SET_SEEDS if s in entry]
            moved = entry.get("b_worse_than_a")
            tail = f" B worse by {moved:+.1%}" if moved is not None else ""
            bound = "none" if entry["bound"] is None else f"{entry['bound']:.0%}"
            print(f"{workload:13s} {name:16s} bound {bound:4s}  "
                  + "  ".join(cells) + tail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
