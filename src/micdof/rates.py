"""Finite-SNR rates of ZF schemes and empirical DOF via sum-rate slopes.

Rates are read from the same receiver model as the pass rule
(``zf._receivers``, one batch of trials that share
config and point): each receiver projects its observation off the residual
interference subspace (a cognitive receiver first subtracts the message it
knows, exactly) and decodes its own streams, with unit noise, in what is
left.  All streams of a message get the same power rho / k, k being the
power split of the message's plan (``zf._plan``: the stream count of the
busiest node carrying it), and the message's Gaussian log-det rate in bits
per channel use is

    sum_i log2(1 + (rho / k) * sigma_i^2)

over the singular values sigma_i of the projected effective channel.  The
empirical DOF is the fitted slope of the sum rate against log2 of the
transmit power, which must match the closed-form value.

Rates are defined by the receiver half of the pass rule alone, and refused
only when it fails.  The transmit rank and the null residual that the one
trial verdict adds (``zf._verdicts``, public as ``zf.verify_scheme``) check
how the sweep builds a scheme, not whether its rates exist: with W2 := W1
and both receivers cognitive, that verdict fails the trial on the transmit
rank, yet each receiver cancels the other message and r1 keeps every bit.

Rates are arrays over (trial, rho, stream), evaluated on a (B, G, s)
broadcast (``_rate_curves``); ``simulate_point`` averages the trial axis.
``achievable_rates`` is a batch of one at one power, kept for the
benchmark's traced replica.  The arrays give the bits of a loop over trials
and powers: each element goes through the same IEEE operations, and the sums
add in order.

The cooperation probe evaluates, as one (channel, rho, j) array for all its
channels, the genie-bound terms

    log2(1 + ||h11_j||^2 rho / (1 + ||h41_j||^2 rho))

for j < m1: row j of the node-1 self link h11 (m1 x m1) is paired with row j
of h41 (n2 x m1), which is why it needs n2 >= m1 (a converse derivation that
fixes this pairing is still open).  The terms saturate in rho, which is
exactly why full-duplex cooperation cannot buy additional DOF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    AntennaConfig,
    ChannelRealization,
    CognitionScenario,
    _gather,
    _integer,
    _runs,
    sample_channels,
)
from .regions import dof_cooperation, dof_cooperation_upper_bounds
from .zf import ZfScheme, _receivers, _require_achievable, _schemes, _stacked, _Trials

SLOPE_GRID_MIN = 1e4
SLOPE_GRID_MAX = 1e10
SLOPE_FIT_POINTS = 5
COOP_RHO_GRID = (1e6, 1e8, 1e10)
COOP_SLOPE_THRESHOLD = 0.01


class UndecodableSchemeError(RuntimeError):
    """Raised when rates are requested for a scheme that fails diagnostics.

    The message names the first failing trial's channel seed (in
    ``simulate_point`` also its scheme seed), the receiver, and that
    receiver's interference and signal ranks with their generic values
    (``zf._receivers``), so the trial can be replayed alone."""


@dataclass(frozen=True)
class RateSweep:
    """Per-user rates over a power grid plus the fitted sum-rate slope."""

    rho_grid: tuple[float, ...]
    r1_rates: tuple[float, ...]
    r2_rates: tuple[float, ...]
    slope: float
    intercept: float

    def __post_init__(self) -> None:
        _check_grid(self.rho_grid)
        sums = self.sum_rates
        if any(b < a - 1e-9 * (1.0 + abs(a)) for a, b in zip(sums, sums[1:])):
            raise ValueError("rates must be nondecreasing in rho")

    @property
    def sum_rates(self) -> tuple[float, ...]:
        return tuple(a + b for a, b in zip(self.r1_rates, self.r2_rates))

    def to_csv(self) -> str:
        lines = ["rho,r1,r2,rsum"]
        for rho, r1, r2 in zip(self.rho_grid, self.r1_rates, self.r2_rates):
            lines.append(f"{rho!r},{r1!r},{r2!r},{(r1 + r2)!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CooperationBoundProbe:
    """The genie-bound terms at one power: entry j pairs row j of h11 with
    row j of h41, j < m1 (see the module docstring)."""

    per_antenna_terms: tuple[float, ...]
    rho: float


@dataclass(frozen=True)
class CooperationGapReport:
    """Saturation check of the genie-bound terms over random channels."""

    config: AntennaConfig
    trials: int
    rho_grid: tuple[float, ...]
    max_term_slope: float
    dof: int
    upper_bounds: tuple[int, int]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "trials": self.trials,
            "rho_grid": list(self.rho_grid),
            "max_term_slope": self.max_term_slope,
            "dof_cooperation": self.dof,
            "upper_bounds": list(self.upper_bounds),
            "passed": self.passed,
        }


def _rate_models(trials: _Trials) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per message, k (B,), its plan's power split, and the squared projected
    singular values (B, s), read from the batch's receiver stacks
    (``zf._receivers``).  Only the receiver ranks can refuse a trial; the
    transmit rank and the null residual are sweep checks (module docstring)."""
    rx1, rx2, failed = _receivers(trials)
    if failed:
        i = min(failed)  # the first failing trial
        receiver, rx = (1, rx1) if not rx1.passes[i] else (2, rx2)
        seed = trials.channels[i].seed
        raise UndecodableSchemeError(
            f"scheme fails the rank rule on the channel of seed {seed} at receiver "
            f"{receiver} (interference rank {rx.interference[i]} of {rx.unnulled[i]}, "
            f"signal rank {rx.signal[i]} of {rx.streams}); rates are undefined"
        )
    k1, k2 = np.array([(x1.power, x2.power) for x1, x2 in trials.plans]).T
    return (k1, rx1.spectrum ** 2), (k2, rx2.spectrum ** 2)


def _rate_curves(models, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per message, the rates (B, G): log2(1 + (rho / k) sigma^2) over
    (scheme, rho, stream), summed over the stream axis."""
    return tuple(
        np.log2(1.0 + (grid[None, :, None] / k[:, None, None]) * gains[:, None, :]).sum(axis=2)
        for k, gains in models
    )


def achievable_rates(scheme: ZfScheme, channel: ChannelRealization,
                     rho: float) -> tuple[float, float]:
    """Rates (bits/channel use) of both messages at transmit power rho."""
    if not rho >= 0:
        raise ValueError("rho must be nonnegative")
    r1, r2 = _rate_curves(_rate_models(_stacked([scheme], [channel])),
                          np.array([rho], dtype=float))
    return float(r1[0, 0]), float(r2[0, 0])


def fit_loglinear_slope(rho_grid: np.ndarray, sum_rates: np.ndarray) -> tuple[float, float]:
    """Least-squares line of rate against log2(rho), over the top
    SLOPE_FIT_POINTS grid points.

    Restricting the fit to the largest powers suppresses the bounded
    additive terms that have not faded yet at the low end of the grid.
    """
    take = min(SLOPE_FIT_POINTS, len(rho_grid))
    x = np.log2(np.asarray(rho_grid, dtype=float)[-take:])
    y = np.asarray(sum_rates, dtype=float)[-take:]
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def _check_grid(grid: tuple[float, ...]) -> None:
    if len(grid) < 3:
        raise ValueError("rho grid must have at least 3 points")
    if not np.all(np.isfinite(grid)):
        raise ValueError("rho grid must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("rho grid must be strictly increasing")


def _validate_grid(rho_grid) -> tuple[float, ...]:
    grid = tuple(float(r) for r in rho_grid)
    _check_grid(grid)
    if grid[0] < SLOPE_GRID_MIN or grid[-1] > SLOPE_GRID_MAX:
        raise ValueError(
            f"rho grid must lie within [{SLOPE_GRID_MIN:g}, {SLOPE_GRID_MAX:g}]"
        )
    return grid


def _sweep(trials: _Trials, grid: tuple[float, ...]) -> RateSweep:
    """Per-grid-point mean rates over the batch and the slope of their sum."""
    r1_mean, r2_mean = (
        rates.sum(axis=0) / len(trials.w1)
        for rates in _rate_curves(_rate_models(trials), np.array(grid))
    )
    slope, intercept = fit_loglinear_slope(np.array(grid), r1_mean + r2_mean)
    return RateSweep(rho_grid=grid, r1_rates=tuple(r1_mean.tolist()),
                     r2_rates=tuple(r2_mean.tolist()), slope=slope, intercept=intercept)


def default_rho_grid(rho_min: float = SLOPE_GRID_MIN, rho_max: float = SLOPE_GRID_MAX,
                     points: int = 7) -> tuple[float, ...]:
    """Logarithmically spaced power grid."""
    points = _integer("points", points)
    if points < 3:
        raise ValueError("grid needs at least 3 points")
    if not all(0 < rho < np.inf for rho in (rho_min, rho_max)):
        raise ValueError("rho_min and rho_max must be positive and finite")
    return tuple(float(r) for r in np.logspace(np.log10(rho_min), np.log10(rho_max), points))


def simulate_point(config: AntennaConfig, scenario: CognitionScenario, d1: int, d2: int,
                   trials: int, seed: int = 0, rho_grid=None) -> RateSweep:
    """Average the rate sweep over independent random channels.

    Returns a RateSweep whose rates are the per-grid-point means and whose
    slope is fitted on the mean sum rate; that mean slope is the Monte Carlo
    DOF estimate for the point (d1, d2).
    """
    trials, seed = _integer("trials", trials), _integer("seed", seed)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    grid = _validate_grid(rho_grid if rho_grid is not None else default_rho_grid())
    _require_achievable(config, scenario, d1, d2)
    channels = sample_channels(config, range(seed, seed + trials))
    return _sweep(_schemes([(config, scenario, (d1, d2), channels, seed)])[d1, d2], grid)


def _bound_terms(channels: list[ChannelRealization], grid: np.ndarray) -> np.ndarray:
    """The genie-bound terms of a batch of channels of one config (B, rho, j);
    row norms by BLAS dot, as np.dot."""
    runs = _runs(channels)
    if any("h11" not in stack for stack, _ in runs):
        raise ValueError("cooperation bound terms need an extended channel realization")
    if not np.all(grid > 0):
        raise ValueError("rho must be positive")
    h11, h41 = _gather(runs, "h11"), _gather(runs, "h41")
    m1 = h11.shape[2]
    if h41.shape[1] < m1:
        raise ValueError(
            f"cooperation bound requires n2 >= m1 (got n2={h41.shape[1]}, m1={m1})"
        )
    direct, quieting = ((h[:, :m1, None, :] @ h[:, :m1, :, None])[:, None, :, 0, 0]
                        for h in (h11, h41))
    rho = grid[:, None]
    return np.log2(1.0 + direct * rho / (1.0 + quieting * rho))


def _term_slopes(channels: list[ChannelRealization], rho_grid) -> np.ndarray:
    """Per channel and genie-bound term (B, j), its largest finite-difference
    slope in log2(rho)."""
    grid = np.array(rho_grid, dtype=float)
    _check_grid(grid)
    steps = np.diff(_bound_terms(channels, grid), axis=1) / np.diff(np.log2(grid))[:, None]
    return np.abs(steps).max(axis=1, initial=0.0)


def cooperation_bound_term(channel: ChannelRealization, rho: float) -> CooperationBoundProbe:
    """The genie-bound terms at one power: row j of h11 against row j of h41,
    j < m1.  Needs the extended link set (for h11) and n2 >= m1."""
    terms = _bound_terms([channel], np.array([rho], dtype=float))
    return CooperationBoundProbe(per_antenna_terms=tuple(terms[0, 0].tolist()), rho=rho)


def cooperation_dof_gap_check(config: AntennaConfig, trials: int, seed: int = 0,
                              slope_threshold: float = COOP_SLOPE_THRESHOLD
                              ) -> CooperationGapReport:
    """Confirm the genie-bound terms saturate, so cooperation adds no DOF.

    Over ``trials`` random extended channels, every genie-bound term must be
    flat (slope below the threshold) across COOP_RHO_GRID; the report pairs
    that with the closed-form cooperation DOF and its upper bounds.
    """
    if config.n2 < config.m1:
        raise ValueError(
            f"cooperation bound requires n2 >= m1 (got n2={config.n2}, m1={config.m1}); "
            "for n2 < m1 swap roles so the larger receiver faces transmitter 1"
        )
    trials, seed = _integer("trials", trials), _integer("seed", seed)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    channels = sample_channels(config, range(seed, seed + trials), extended=True)
    worst = float(_term_slopes(channels, COOP_RHO_GRID).max())
    dof = dof_cooperation(config)
    bounds = dof_cooperation_upper_bounds(config)
    return CooperationGapReport(config=config, trials=trials, rho_grid=COOP_RHO_GRID,
                                max_term_slope=worst, dof=dof, upper_bounds=bounds,
                                passed=worst < slope_threshold and dof <= min(bounds))
