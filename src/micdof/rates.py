"""Finite-SNR rates of ZF schemes and empirical DOF via sum-rate slopes.

Rates are read from the same receiver model as the decodability
diagnostics (``zf._receiver_models``; ``simulate_point`` runs all its
trials through it as one batch): each receiver projects its observation
off the residual interference subspace (a cognitive receiver first subtracts
the message it knows, exactly) and decodes its own streams, with unit noise,
in what is left.  Every transmitting node splits its power budget equally
across its active streams, so all streams of a message get the same power
rho / k (k: the stream count of the busiest node carrying the message), and
the message's Gaussian log-det rate in bits per channel use is

    sum_i log2(1 + (rho / k) * sigma_i^2)

over the singular values sigma_i of the projected effective channel.  One
receiver model per (scheme, channel) therefore gives the whole rate curve.
The empirical DOF is the fitted slope of the sum rate against log2 of the
transmit power, which must match the closed-form value.

The cooperation probe evaluates, per transmit antenna, the genie-bound term
log2(1 + ||h11_j||^2 rho / (1 + ||h41_j||^2 rho)): it saturates in rho, which
is exactly why full-duplex cooperation cannot buy additional DOF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import AntennaConfig, ChannelRealization, CognitionScenario, sample_channel
from .regions import dof_cooperation, dof_cooperation_upper_bounds
from .zf import ZfScheme, _receiver_models, build_scheme

SLOPE_GRID_MIN = 1e4
SLOPE_GRID_MAX = 1e10
SLOPE_FIT_POINTS = 5
COOP_RHO_GRID = (1e6, 1e8, 1e10)


class UndecodableSchemeError(RuntimeError):
    """Raised when rates are requested for a scheme that fails diagnostics."""


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
    """Per-transmit-antenna genie-bound terms at one power level."""

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


def _streams_per_node(scheme: ZfScheme) -> tuple[int, int]:
    """Per message, the stream count of the busiest node that carries it.

    Each node splits its power budget equally across the streams it
    carries.  A stacked stream draws from both transmitters, so it gets the
    smaller of the two per-node shares and every node stays within its
    budget: each stream of message i gets rho / k_i.
    """
    t1, t2 = scheme.scenario.t1, scheme.scenario.t2
    node1 = scheme.d1 + (scheme.d2 if t1 else 0)
    node2 = (scheme.d1 if t2 else 0) + scheme.d2
    return max(node1, node2 if t2 else 0, 1), max(node2, node1 if t1 else 0, 1)


def _rate_models(
    schemes: list[ZfScheme], channels: list[ChannelRealization]
) -> list[tuple[tuple[int, np.ndarray], tuple[int, np.ndarray]]]:
    """Per scheme, from one batched receiver model (the schemes share config
    and point): per message, k_i and the squared projected singular values."""
    models = _receiver_models(schemes, channels)
    if not all(diagnostics.all_decodable for diagnostics, _, _ in models):
        raise UndecodableSchemeError(
            "scheme fails decodability diagnostics on this channel; "
            "rates are undefined"
        )
    return [
        ((k1, projected1**2), (k2, projected2**2))
        for (k1, k2), (_, projected1, projected2) in zip(map(_streams_per_node, schemes), models)
    ]


def _rates_at(model, rho: float) -> tuple[float, float]:
    (k1, gains1), (k2, gains2) = model
    return (
        float(np.sum(np.log2(1.0 + (rho / k1) * gains1))),
        float(np.sum(np.log2(1.0 + (rho / k2) * gains2))),
    )


def _rate_curve(model, grid: tuple[float, ...]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Both messages' rates over the grid, from one receiver model."""
    r1_rates, r2_rates = zip(*(_rates_at(model, rho) for rho in grid))
    return r1_rates, r2_rates


def achievable_rates(
    scheme: ZfScheme, channel: ChannelRealization, rho: float
) -> tuple[float, float]:
    """Rates (bits/channel use) of both messages at transmit power rho."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    return _rates_at(_rate_models([scheme], [channel])[0], rho)


def fit_loglinear_slope(
    rho_grid: np.ndarray, sum_rates: np.ndarray, fit_points: int = SLOPE_FIT_POINTS
) -> tuple[float, float]:
    """Least-squares line of rate against log2(rho), over the top grid points.

    Restricting the fit to the largest powers suppresses the bounded
    additive terms that have not faded yet at the low end of the grid.
    """
    take = min(fit_points, len(rho_grid))
    x = np.log2(np.asarray(rho_grid, dtype=float)[-take:])
    y = np.asarray(sum_rates, dtype=float)[-take:]
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def _check_grid(grid: tuple[float, ...]) -> None:
    if len(grid) < 3:
        raise ValueError("rho grid must have at least 3 points")
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


def estimate_dof_slope(
    scheme: ZfScheme, channel: ChannelRealization, rho_grid
) -> RateSweep:
    """Evaluate rates over the grid and fit the empirical DOF slope."""
    grid = _validate_grid(rho_grid)
    r1_rates, r2_rates = _rate_curve(_rate_models([scheme], [channel])[0], grid)
    sums = np.array(r1_rates) + np.array(r2_rates)
    slope, intercept = fit_loglinear_slope(np.array(grid), sums)
    return RateSweep(
        rho_grid=grid,
        r1_rates=r1_rates,
        r2_rates=r2_rates,
        slope=slope,
        intercept=intercept,
    )


def default_rho_grid(
    rho_min: float = SLOPE_GRID_MIN, rho_max: float = SLOPE_GRID_MAX, points: int = 7
) -> tuple[float, ...]:
    """Logarithmically spaced power grid."""
    if points < 3:
        raise ValueError("grid needs at least 3 points")
    return tuple(float(r) for r in np.logspace(np.log10(rho_min), np.log10(rho_max), points))


def simulate_point(
    config: AntennaConfig,
    scenario: CognitionScenario,
    d1: int,
    d2: int,
    trials: int,
    seed: int = 0,
    rho_grid=None,
) -> RateSweep:
    """Average the rate sweep over independent random channels.

    Returns a RateSweep whose rates are the per-grid-point means and whose
    slope is fitted on the mean sum rate; that mean slope is the Monte Carlo
    DOF estimate for the point (d1, d2).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    grid = _validate_grid(rho_grid if rho_grid is not None else default_rho_grid())
    r1_acc = np.zeros(len(grid))
    r2_acc = np.zeros(len(grid))
    channels = [sample_channel(config, seed=seed + trial) for trial in range(trials)]
    schemes = [
        build_scheme(config, scenario, d1, d2, channel, seed=seed + trial)
        for trial, channel in enumerate(channels)
    ]
    for model in _rate_models(schemes, channels):
        r1_rates, r2_rates = _rate_curve(model, grid)
        r1_acc += np.array(r1_rates)
        r2_acc += np.array(r2_rates)
    r1_mean = r1_acc / trials
    r2_mean = r2_acc / trials
    slope, intercept = fit_loglinear_slope(np.array(grid), r1_mean + r2_mean)
    return RateSweep(
        rho_grid=grid,
        r1_rates=tuple(float(r) for r in r1_mean),
        r2_rates=tuple(float(r) for r in r2_mean),
        slope=slope,
        intercept=intercept,
    )


def cooperation_bound_term(
    channel: ChannelRealization, rho: float
) -> CooperationBoundProbe:
    """Per-antenna genie-bound terms for the cooperation converse.

    Needs the extended link set (for the node-1 self link h11) and n2 >= m1
    so every transmit antenna of node 1 has a counterpart row at node 4.
    """
    if channel.extended_links is None:
        raise ValueError("cooperation bound terms need an extended channel realization")
    if rho <= 0:
        raise ValueError("rho must be positive")
    h11 = channel.extended_links[(1, 1)]
    h41 = channel.h41
    m1 = h11.shape[1]
    if h41.shape[0] < m1:
        raise ValueError(
            f"cooperation bound requires n2 >= m1 (got n2={h41.shape[0]}, m1={m1})"
        )
    terms = []
    for j in range(m1):
        direct = float(np.dot(h11[j], h11[j]))
        quieting = float(np.dot(h41[j], h41[j]))
        terms.append(float(np.log2(1.0 + direct * rho / (1.0 + quieting * rho))))
    return CooperationBoundProbe(per_antenna_terms=tuple(terms), rho=rho)


def bound_term_slopes(
    channel: ChannelRealization, rho_grid=COOP_RHO_GRID
) -> list[float]:
    """Finite-difference slope in log2(rho) of each per-antenna term."""
    grid = tuple(float(r) for r in rho_grid)
    probes = [cooperation_bound_term(channel, rho) for rho in grid]
    n_terms = len(probes[0].per_antenna_terms)
    slopes = []
    for j in range(n_terms):
        worst = 0.0
        for k in range(len(grid) - 1):
            dy = probes[k + 1].per_antenna_terms[j] - probes[k].per_antenna_terms[j]
            dx = np.log2(grid[k + 1]) - np.log2(grid[k])
            worst = max(worst, abs(dy / dx))
        slopes.append(worst)
    return slopes


def cooperation_dof_gap_check(
    config: AntennaConfig,
    trials: int,
    seed: int = 0,
    rho_grid=COOP_RHO_GRID,
    slope_threshold: float = 0.01,
) -> CooperationGapReport:
    """Confirm the genie-bound terms saturate, so cooperation adds no DOF.

    Over ``trials`` random extended channels, every per-antenna term must be
    flat (slope below the threshold) across the power grid; the report pairs
    that with the closed-form cooperation DOF and its upper bounds.
    """
    if config.n2 < config.m1:
        raise ValueError(
            f"cooperation bound requires n2 >= m1 (got n2={config.n2}, m1={config.m1}); "
            "for n2 < m1 swap roles so the larger receiver faces transmitter 1"
        )
    if trials < 1:
        raise ValueError("trials must be >= 1")
    worst = 0.0
    for trial in range(trials):
        channel = sample_channel(config, seed=seed + trial, extended=True)
        worst = max(worst, max(bound_term_slopes(channel, rho_grid)))
    dof = dof_cooperation(config)
    bounds = dof_cooperation_upper_bounds(config)
    passed = worst < slope_threshold and dof <= min(bounds)
    return CooperationGapReport(
        config=config,
        trials=trials,
        rho_grid=tuple(float(r) for r in rho_grid),
        max_term_slope=worst,
        dof=dof,
        upper_bounds=bounds,
        passed=passed,
    )
