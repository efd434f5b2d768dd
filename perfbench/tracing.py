"""In-memory spans and numpy operation counts for the traced benchmark run.

Spans are recorded around calls into the package's layers from the
benchmark's own files, never from inside the package.  Each numpy SVD,
``slogdet`` and ``hstack`` is counted against the innermost open span; the
counting wrappers are installed only while a traced round runs.
"""

from __future__ import annotations

import contextlib
import gzip
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("channel", "regions", "zf", "rates")


class Tracer:
    """Spans of one traced run, kept in memory until ``write_spans``."""

    def __init__(self) -> None:
        self.trace_id = 0  # the round every new span belongs to
        self.records: list[tuple[int, int, int, str, float, float]] = []
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.ops: Counter[tuple[str, str]] = Counter()
        self.tallies: Counter[str] = Counter()
        self._stack: list[list] = []  # open spans: [span_id, name, child_seconds]
        self._next_id = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` and return its result."""
        frame = [self._next_id, name, 0.0]
        self._next_id += 1
        stack = self._stack
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[name] += duration - frame[2]
            self.calls[name] += 1
            parent = -1
            if stack:
                stack[-1][2] += duration
                parent = stack[-1][0]
            self.records.append((self.trace_id, frame[0], parent, name, start, end))

    def _count(self, op: str) -> None:
        innermost = self._stack[-1][1] if self._stack else ""
        self.ops[innermost, op] += 1

    @contextlib.contextmanager
    def counting_numpy(self):
        """Count numpy SVDs (including the one inside a matrix 2-norm),
        ``slogdet`` and ``hstack`` calls while the block runs."""
        svd, slogdet, norm, hstack = (
            np.linalg.svd, np.linalg.slogdet, np.linalg.norm, np.hstack
        )

        def counted_svd(*args, **kwargs):
            self._count("svd")
            return svd(*args, **kwargs)

        def counted_slogdet(*args, **kwargs):
            self._count("slogdet")
            return slogdet(*args, **kwargs)

        def counted_hstack(*args, **kwargs):
            self._count("hstack")
            return hstack(*args, **kwargs)

        def counted_norm(x, ord=None, *args, **kwargs):
            if ord in (2, -2) and np.ndim(x) == 2:
                self._count("svd")
            return norm(x, ord, *args, **kwargs)

        np.linalg.svd, np.linalg.slogdet = counted_svd, counted_slogdet
        np.linalg.norm, np.hstack = counted_norm, counted_hstack
        try:
            yield self
        finally:
            np.linalg.svd, np.linalg.slogdet, np.linalg.norm, np.hstack = (
                svd, slogdet, norm, hstack
            )

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for name, t in self.self_s.items() if name.startswith(prefix))

    def layer_ops(self, layer: str, op: str) -> int:
        prefix = layer + "."
        return sum(n for (name, o), n in self.ops.items() if o == op and name.startswith(prefix))

    def write_spans(self, path: Path) -> None:
        """Write every span as gzipped CSV: round, span, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("round,span,parent,name,start_s,end_s\n")
            for rec in self.records:
                fh.write("%d,%d,%d,%s,%.9f,%.9f\n" % rec)


def layer_metrics(
    tracer: Tracer, rounds: int, traced_wall: float, plain_wall: float
) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Calls and self times are per round (one unit of the workload's fixed
    work); shares are self time over the traced wall time.  A layer the
    workload never calls reads 0.
    """

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for span in (
        "channel.sample_channel", "zf.build_scheme", "zf.verify_scheme",
        "rates.achievable_rates", "regions.inner_points", "rates.cooperation_bound_term",
    ):
        out[f"{span}.calls"] = tracer.calls[span] / rounds
        out[f"{span}.self_s"] = tracer.self_s[span] / rounds
    for span in (
        "channel.sample_channel", "zf.build_scheme", "zf.verify_scheme",
        "rates.achievable_rates",
    ):
        out[f"{span}.us_per_call"] = ratio(tracer.self_s[span] * 1e6, tracer.calls[span])
    for span in (
        "regions.inner_region", "regions.outer_region", "regions.verdict",
        "regions.scenario_ordering_holds", "zf.null_residual", "zf.transmit_rank",
    ):
        out[f"{span}.self_s"] = tracer.self_s[span] / rounds
    trials = tracer.calls["zf.build_scheme"]
    out["zf.svd_per_trial"] = ratio(tracer.layer_ops("zf", "svd"), trials)
    out["zf.hstack_per_trial"] = ratio(tracer.layer_ops("zf", "hstack"), trials)
    # Only the sweep decides pass or fail per trial; rate_mc reads 0 here.
    out["zf.pass_ratio"] = ratio(tracer.tallies["zf.pass"], tracer.tallies["zf.trial"])
    rate_points = tracer.calls["rates.achievable_rates"]
    out["rates.svd_per_rate_point"] = ratio(
        tracer.ops["rates.achievable_rates", "svd"], rate_points
    )
    out["rates.slogdet_per_rate_point"] = ratio(
        tracer.ops["rates.achievable_rates", "slogdet"], rate_points
    )
    for layer in LAYERS:
        out[f"{layer}.share"] = ratio(tracer.layer_self_s(layer), traced_wall)
    out["trace_overhead"] = ratio(traced_wall, plain_wall)
    return out
