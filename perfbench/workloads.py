"""The benchmark's workloads.

Each workload runs one round (a fixed unit of work) through the package's
public entry points, checks the round's output, rebuilds the same round from
public layer calls for the traced run, and supplies negative controls that
show its check can fail.  A round's inputs come only from its seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import re
from fractions import Fraction

import numpy as np

from micdof import (
    RANK_RTOL,
    AntennaConfig,
    CognitionScenario,
    CooperationGapReport,
    RateSweep,
    SweepReport,
    achievability_sweep,
    achievable_rates,
    build_scheme,
    cli,
    cooperation_bound_term,
    cooperation_dof_gap_check,
    dof_cooperation,
    dof_cooperation_upper_bounds,
    dof_formula,
    inner_points,
    inner_region,
    lemma5_holds,
    outer_region,
    regions_equal,
    sample_channel,
    scenario_ordering_holds,
    simulate_point,
    sum_dof_lp,
    verify_scheme,
)
from micdof.cli import COOP_SLOPE_THRESHOLD, SLOPE_TOLERANCE
from micdof.rates import COOP_RHO_GRID, default_rho_grid, fit_loglinear_slope
from micdof.zf import SweepCell, _derived_seed, null_residual, transmit_rank

# Round k of a run with seed s uses seed s * ROUND_STRIDE + k.  The warm-up
# slice uses the last index of the stride, which no timed run reaches.
ROUND_STRIDE = 100_000
WARMUP_ROUND = ROUND_STRIDE - 1


def round_seed(seed: int, k: int) -> int:
    return seed * ROUND_STRIDE + k


@dataclasses.dataclass(frozen=True)
class Verdict:
    """Outcome of checking one round: items that failed, and why."""

    failed: int
    problems: tuple[str, ...]


def _verdict(items: int, problems: list[str], failed: int) -> Verdict:
    if problems and failed <= 0:
        failed = items  # the round as a whole is wrong
    return Verdict(failed=min(failed, items), problems=tuple(problems))


class ZfSweep:
    """``achievability_sweep(max_antennas=3, trials=TRIALS, seed)``.

    One item is one scheme verification: 81 configs x 16 scenarios x every
    achievable point is 8,796 cells, each run on TRIALS channels.
    """

    name = "zf_sweep"
    MAX_ANTENNAS = 3
    TRIALS = 1
    CELLS = 8796
    items = CELLS * TRIALS

    def warmup(self, seed: int) -> None:
        achievability_sweep(max_antennas=2, trials=1, seed=seed)

    def run(self, seed: int) -> SweepReport:
        return achievability_sweep(self.MAX_ANTENNAS, self.TRIALS, seed=seed)

    def check(self, report: SweepReport) -> Verdict:
        problems = []
        if report.total_trials != self.items:
            problems.append(f"{report.total_trials} trials, expected {self.items}")
        if not report.all_passed:
            problems.append(f"{len(report.failures())} cells have failing trials")
        if report.worst_null_residual > RANK_RTOL:
            problems.append(
                f"worst null residual {report.worst_null_residual:.3g} > {RANK_RTOL:g}"
            )
        return _verdict(self.items, problems, report.total_trials - report.total_passes)

    def traced(self, tracer, seed: int) -> SweepReport:
        """The sweep loop: sample, inner_points, then build, verify, null
        residual and transmit rank per trial, with the sweep's own seeds and
        pass rule."""
        cells = []
        scenarios = CognitionScenario.all_scenarios()
        for counts in itertools.product(range(1, self.MAX_ANTENNAS + 1), repeat=4):
            config = AntennaConfig(*counts)
            for s_index, scenario in enumerate(scenarios):
                cell_seed = _derived_seed(seed, counts, s_index)
                channels = [
                    tracer.call("channel.sample_channel", sample_channel, config,
                                seed=cell_seed + trial)
                    for trial in range(self.TRIALS)
                ]
                points = tracer.call("regions.inner_points", inner_points, config, scenario)
                for point in sorted(points.points):
                    cells.append(
                        self._traced_cell(tracer, config, scenario, point, channels, cell_seed)
                    )
        return SweepReport(cells=tuple(cells))

    @staticmethod
    def _traced_cell(tracer, config, scenario, point, channels, cell_seed) -> SweepCell:
        d1, d2 = point
        passes = 0
        worst = 0.0
        for trial, ch in enumerate(channels):
            scheme = tracer.call("zf.build_scheme", build_scheme, config, scenario, d1, d2,
                                 ch, seed=cell_seed + trial)
            diag = tracer.call("zf.verify_scheme", verify_scheme, scheme, ch)
            residual = tracer.call("zf.null_residual", null_residual, scheme, ch)
            worst = max(worst, residual)
            ok = (
                diag.all_decodable
                and residual <= RANK_RTOL
                and tracer.call("zf.transmit_rank", transmit_rank, scheme) == d1 + d2
            )
            passes += int(ok)
        tracer.tallies["zf.pass"] += passes
        tracer.tallies["zf.trial"] += len(channels)
        return SweepCell(config=config, scenario=scenario, point=point,
                         trials=len(channels), passes=passes, worst_null_residual=worst)

    def controls(self, report: SweepReport):
        """(label, verdict) pairs whose verdicts must report a problem."""
        first, rest = report.cells[0], report.cells[1:]
        failed = dataclasses.replace(first, passes=first.passes - 1)
        leaky = dataclasses.replace(first, worst_null_residual=1e3 * RANK_RTOL)
        yield "a failed trial", self.check(SweepReport(cells=(failed,) + rest))
        yield "a missing cell", self.check(SweepReport(cells=rest))
        yield "a leaky null vector", self.check(SweepReport(cells=(leaky,) + rest))


@dataclasses.dataclass(frozen=True)
class VerifyResult:
    status: int
    checks: int | None
    failures: tuple[str, ...]


_TOTAL_LINE = re.compile(r"^(?:PASS \((\d+) checks\)|FAIL \(\d+ of (\d+) checks\))$")


def run_verify_cli(argv: list[str]) -> VerifyResult:
    """Run ``micdof verify`` in-process and read its verdicts from the output."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(argv)
    lines = buffer.getvalue().splitlines()
    match = _TOTAL_LINE.match(lines[-1]) if lines else None
    checks = int(match.group(1) or match.group(2)) if match else None
    failures = tuple(line[len("FAIL: "):] for line in lines if line.startswith("FAIL: "))
    return VerifyResult(status=status, checks=checks, failures=failures)


class ExactVerify:
    """``micdof verify --max-antennas 4 --which all``, in-process.

    4,096 region checks + 81 lemma-5 checks + 256 ordering checks = 4,433
    items.  The exact gate has no random input, so it ignores the seed.
    """

    name = "exact_verify"
    MAX_ANTENNAS = 4
    ARGV = ["verify", "--max-antennas", str(MAX_ANTENNAS), "--which", "all"]
    items = 4096 + 81 + 256

    def warmup(self, seed: int) -> None:
        run_verify_cli(["verify", "--max-antennas", "2", "--which", "all"])

    def run(self, seed: int) -> VerifyResult:
        return run_verify_cli(self.ARGV)

    def check(self, result: VerifyResult) -> Verdict:
        problems = []
        if result.status != 0:
            problems.append(f"exit status {result.status}")
        if result.checks != self.items:
            problems.append(f"{result.checks} checks, expected {self.items}")
        problems += [f"FAIL: {line}" for line in result.failures]
        return _verdict(self.items, problems, len(result.failures))

    def traced(self, tracer, seed: int) -> VerifyResult:
        """The region loop of ``micdof verify``, one span per layer call."""
        checks = 0
        failures: list[str] = []
        configs = [
            AntennaConfig(*counts)
            for counts in itertools.product(range(1, self.MAX_ANTENNAS + 1), repeat=4)
        ]
        scenarios = CognitionScenario.all_scenarios()
        for config in configs:
            for scenario in scenarios:
                inner = tracer.call("regions.inner_region", inner_region, config, scenario)
                outer = tracer.call("regions.outer_region", outer_region, config, scenario)
                checks += 1
                failures += tracer.call("regions.verdict", _region_verdict,
                                        config, scenario, inner, outer)
        for c in range(9):
            for d in range(9):
                checks += 1
                if not tracer.call("regions.lemma5_holds", lemma5_holds, c, d, box=20):
                    failures.append(f"clipped-sum identity fails at c={c}, d={d}")
        for config in configs:
            checks += 1
            if not tracer.call("regions.scenario_ordering_holds",
                               scenario_ordering_holds, config):
                failures.append(f"cognition ordering fails at {config}")
            failures += tracer.call("regions.verdict", _cooperation_verdict, config)
        return VerifyResult(status=1 if failures else 0, checks=checks,
                            failures=tuple(failures))

    def controls(self, result: VerifyResult):
        """(label, verdict) pairs whose verdicts must report a problem."""
        for label, max_antennas in (("too few checks", "2"), ("exit status 2", "6")):
            yield label, self.check(run_verify_cli(
                ["verify", "--max-antennas", max_antennas, "--which", "all"]))


def _region_verdict(config, scenario, inner, outer) -> list[str]:
    if not regions_equal(inner, outer):
        return [f"region mismatch at {config} {scenario}"]
    failures = []
    if Fraction(dof_formula(config, scenario)) != sum_dof_lp(outer):
        failures.append(f"formula/LP mismatch at {config} {scenario}")
    if any(v.d1.denominator != 1 or v.d2.denominator != 1 for v in outer.vertices):
        failures.append(f"non-integer vertex at {config} {scenario}")
    return failures


def _cooperation_verdict(config) -> list[str]:
    if dof_cooperation(config) != dof_formula(config, CognitionScenario()):
        return [f"cooperation DOF differs from no-cognition DOF at {config}"]
    return []


@dataclasses.dataclass(frozen=True)
class RateMcResult:
    sweeps: tuple[RateSweep, ...]
    coop: tuple[CooperationGapReport, ...]


class RateMc:
    """``simulate_point`` on a fixed list of max-sum points, plus
    ``cooperation_dof_gap_check``.  One item is one rate evaluation, a
    (trial, rho) pair.

    TRIALS = 50 keeps the Monte Carlo slope well inside the CLI's 3%
    tolerance; at 10 trials its error tail crosses it on some seeds.  The
    cooperation check runs on the configs with n2 >= m1 >= 3: with m1 <= 2 the
    finite-difference slope of the genie term exceeds the 0.01 threshold on
    some channels (about 3.6e-3 of antenna draws at m1 = 1, 1e-5 at m1 = 2).
    """

    name = "rate_mc"
    # (m1, m2, n1, n2), cognition bits (t1, t2, r1, r2), max-sum point (d1, d2)
    CASES = (
        ((1, 2, 4, 4), (0, 0, 1, 1), (1, 2)),
        ((1, 3, 3, 1), (0, 1, 0, 0), (3, 0)),
        ((1, 4, 2, 3), (1, 0, 0, 0), (1, 2)),
        ((2, 2, 2, 2), (0, 0, 0, 0), (1, 1)),
        ((2, 4, 3, 3), (0, 1, 0, 1), (2, 2)),
        ((3, 1, 2, 4), (0, 1, 1, 0), (2, 1)),
        ((4, 3, 2, 2), (1, 0, 1, 0), (2, 2)),
        ((4, 4, 4, 4), (1, 1, 0, 0), (4, 4)),
    )
    COOP_CONFIGS = tuple(
        counts for counts, _, _ in CASES if counts[3] >= counts[0] >= 3
    )
    TRIALS = 50
    COOP_TRIALS = 10
    GRID = default_rho_grid()
    items = (len(CASES) * TRIALS * len(GRID)
             + len(COOP_CONFIGS) * COOP_TRIALS * len(COOP_RHO_GRID))

    def _seeds(self, seed: int) -> list[int]:
        """Disjoint channel seed ranges, one per case and cooperation config."""
        base = seed * 1000
        return [base + i * self.TRIALS for i in range(len(self.CASES) + len(self.COOP_CONFIGS))]

    def warmup(self, seed: int) -> None:
        counts, bits, point = self.CASES[-1]
        simulate_point(AntennaConfig(*counts), CognitionScenario.from_bits(bits), *point,
                       trials=2, seed=seed, rho_grid=self.GRID)
        cooperation_dof_gap_check(AntennaConfig(*self.COOP_CONFIGS[0]), trials=1, seed=seed,
                                  slope_threshold=COOP_SLOPE_THRESHOLD)

    def run(self, seed: int) -> RateMcResult:
        seeds = self._seeds(seed)
        sweeps = tuple(
            simulate_point(AntennaConfig(*counts), CognitionScenario.from_bits(bits), *point,
                           trials=self.TRIALS, seed=case_seed, rho_grid=self.GRID)
            for (counts, bits, point), case_seed in zip(self.CASES, seeds)
        )
        coop = tuple(
            cooperation_dof_gap_check(AntennaConfig(*counts), trials=self.COOP_TRIALS,
                                      seed=coop_seed, slope_threshold=COOP_SLOPE_THRESHOLD)
            for counts, coop_seed in zip(self.COOP_CONFIGS, seeds[len(self.CASES):])
        )
        return RateMcResult(sweeps=sweeps, coop=coop)

    def check(self, result: RateMcResult, cases=CASES) -> Verdict:
        problems = []
        failed = 0
        for (counts, bits, (d1, d2)), sweep in zip(cases, result.sweeps, strict=True):
            target = d1 + d2
            if abs(sweep.slope - target) / target > SLOPE_TOLERANCE:
                problems.append(f"slope {sweep.slope:.4f} vs {target} at {counts} {bits}")
                failed += self.TRIALS * len(self.GRID)
        for report in result.coop:
            if not report.passed:
                problems.append(f"cooperation check failed at {report.config}")
                failed += self.COOP_TRIALS * len(COOP_RHO_GRID)
        if len(result.coop) != len(self.COOP_CONFIGS):
            problems.append(f"{len(result.coop)} cooperation reports, "
                            f"expected {len(self.COOP_CONFIGS)}")
        return _verdict(self.items, problems, failed)

    def traced(self, tracer, seed: int) -> RateMcResult:
        """sample -> build -> achievable_rates per rho -> fit_loglinear_slope,
        averaged as ``simulate_point`` does; then the extended-channel
        cooperation probe as ``cooperation_dof_gap_check`` does."""
        seeds = self._seeds(seed)
        sweeps = tuple(
            self._traced_sweep(tracer, AntennaConfig(*counts),
                               CognitionScenario.from_bits(bits), *point, case_seed)
            for (counts, bits, point), case_seed in zip(self.CASES, seeds)
        )
        coop = tuple(
            self._traced_coop(tracer, AntennaConfig(*counts), coop_seed)
            for counts, coop_seed in zip(self.COOP_CONFIGS, seeds[len(self.CASES):])
        )
        return RateMcResult(sweeps=sweeps, coop=coop)

    def _traced_sweep(self, tracer, config, scenario, d1, d2, seed) -> RateSweep:
        grid = self.GRID
        r1_acc = np.zeros(len(grid))
        r2_acc = np.zeros(len(grid))
        for trial in range(self.TRIALS):
            channel = tracer.call("channel.sample_channel", sample_channel, config,
                                  seed=seed + trial)
            scheme = tracer.call("zf.build_scheme", build_scheme, config, scenario, d1, d2,
                                 channel, seed=seed + trial)
            r1_list, r2_list = [], []
            for rho in grid:
                r1, r2 = tracer.call("rates.achievable_rates", achievable_rates,
                                     scheme, channel, rho)
                r1_list.append(r1)
                r2_list.append(r2)
            sums = np.array(r1_list) + np.array(r2_list)
            tracer.call("rates.fit_loglinear_slope", fit_loglinear_slope, np.array(grid), sums)
            r1_acc += np.array(r1_list)
            r2_acc += np.array(r2_list)
        r1_mean = r1_acc / self.TRIALS
        r2_mean = r2_acc / self.TRIALS
        slope, intercept = tracer.call("rates.fit_loglinear_slope", fit_loglinear_slope,
                                       np.array(grid), r1_mean + r2_mean)
        return RateSweep(rho_grid=grid, r1_rates=tuple(float(r) for r in r1_mean),
                         r2_rates=tuple(float(r) for r in r2_mean),
                         slope=slope, intercept=intercept)

    def _traced_coop(self, tracer, config, seed) -> CooperationGapReport:
        grid = tuple(float(r) for r in COOP_RHO_GRID)
        worst = 0.0
        for trial in range(self.COOP_TRIALS):
            channel = tracer.call("channel.sample_channel", sample_channel, config,
                                  seed=seed + trial, extended=True)
            probes = [tracer.call("rates.cooperation_bound_term", cooperation_bound_term,
                                  channel, rho) for rho in grid]
            for j in range(len(probes[0].per_antenna_terms)):
                for k in range(len(grid) - 1):
                    dy = probes[k + 1].per_antenna_terms[j] - probes[k].per_antenna_terms[j]
                    dx = np.log2(grid[k + 1]) - np.log2(grid[k])
                    worst = max(worst, abs(dy / dx))
        dof = dof_cooperation(config)
        bounds = dof_cooperation_upper_bounds(config)
        return CooperationGapReport(
            config=config, trials=self.COOP_TRIALS, rho_grid=grid, max_term_slope=worst,
            dof=dof, upper_bounds=bounds,
            passed=worst < COOP_SLOPE_THRESHOLD and dof <= min(bounds),
        )

    def controls(self, result: RateMcResult):
        """(label, verdict) pairs whose verdicts must report a problem."""
        shifted = tuple((c, b, (d1 + 1, d2)) for c, b, (d1, d2) in self.CASES)
        yield "slope against d1 + d2 + 1", self.check(result, cases=shifted)
        counts = self.COOP_CONFIGS[0]
        strict = cooperation_dof_gap_check(AntennaConfig(*counts), trials=self.COOP_TRIALS,
                                           seed=self._seeds(0)[len(self.CASES)],
                                           slope_threshold=0.0)
        yield "cooperation threshold 0", self.check(
            dataclasses.replace(result, coop=(strict,) + result.coop[1:]))


WORKLOADS = {w.name: w for w in (ZfSweep, ExactVerify, RateMc)}
