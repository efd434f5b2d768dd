"""Finite-SNR rates of ZF schemes and empirical DOF via sum-rate slopes.

Rates are Gaussian log-det rates in bits per channel use: each receiver
projects its observation onto the orthogonal complement of the residual
interference subspace (a cognitive receiver first subtracts the message it
knows, exactly), and the remaining effective MIMO channel is evaluated with
unit noise.  Every transmitting node splits its power budget equally across
its active streams.  The empirical DOF is the fitted slope of the sum rate
against log2 of the transmit power, which must match the closed-form value.

The cooperation probe evaluates, per transmit antenna, the genie-bound term
log2(1 + ||h11_j||^2 rho / (1 + ||h41_j||^2 rho)): it saturates in rho, which
is exactly why full-duplex cooperation cannot buy additional DOF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    RANK_RTOL,
    AntennaConfig,
    ChannelRealization,
    CognitionScenario,
    sample_channel,
)
from .regions import dof_cooperation, dof_cooperation_upper_bounds
from .zf import ZfScheme, build_scheme, verify_scheme

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
        if len(self.rho_grid) < 3:
            raise ValueError("rho grid must have at least 3 points")
        if any(b <= a for a, b in zip(self.rho_grid, self.rho_grid[1:])):
            raise ValueError("rho grid must be strictly increasing")
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


def _orthocomplement_basis(columns: np.ndarray, scale: float) -> np.ndarray:
    """Orthonormal basis of the complement of span(columns) in R^rows."""
    rows = columns.shape[0]
    if columns.size == 0:
        return np.eye(rows)
    u, singular, _ = np.linalg.svd(columns, full_matrices=True)
    rank = int(np.count_nonzero(singular > RANK_RTOL * scale))
    return u[:, rank:]


def _stream_powers(scheme: ZfScheme, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-stream powers under an equal split of each node's budget.

    A stacked stream draws from both transmitters, so it gets the smaller of
    the two per-node shares; every node then stays within its budget.
    """
    node1_streams = scheme.d1 + (scheme.d2 if scheme.scenario.t1 else 0)
    node2_streams = (scheme.d1 if scheme.scenario.t2 else 0) + scheme.d2
    shares = []
    for uses_node1, uses_node2 in (
        (True, scheme.scenario.t2),
        (scheme.scenario.t1, True),
    ):
        options = []
        if uses_node1 and node1_streams > 0:
            options.append(rho / node1_streams)
        if uses_node2 and node2_streams > 0:
            options.append(rho / node2_streams)
        shares.append(min(options) if options else 0.0)
    w1_share, w2_share = shares
    return (
        np.full(scheme.d1, w1_share),
        np.full(scheme.d2, w2_share),
    )


def _receiver_rate(
    full_channel: np.ndarray,
    scale: float,
    signal_cols: np.ndarray,
    interference_cols: np.ndarray | None,
    powers: np.ndarray,
) -> float:
    if signal_cols.shape[1] == 0:
        return 0.0
    received = full_channel @ signal_cols
    if interference_cols is not None and interference_cols.shape[1] > 0:
        basis = _orthocomplement_basis(full_channel @ interference_cols, scale)
        effective = basis.T @ received
    else:
        effective = received
    gram = effective @ np.diag(powers) @ effective.T
    _, logdet = np.linalg.slogdet(np.eye(gram.shape[0]) + gram)
    return float(logdet / np.log(2.0))


def achievable_rates(
    scheme: ZfScheme, channel: ChannelRealization, rho: float
) -> tuple[float, float]:
    """Rates (bits/channel use) of both messages at transmit power rho."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    diagnostics = verify_scheme(scheme, channel)
    if not diagnostics.all_decodable:
        raise UndecodableSchemeError(
            "scheme fails decodability diagnostics on this channel; "
            "rates are undefined"
        )
    p1, p2 = _stream_powers(scheme, rho)
    w1_cols = scheme.w1_embedded()
    w2_cols = scheme.w2_embedded()
    r1 = _receiver_rate(
        channel.rx1,
        channel.spectral_norm("rx1"),
        signal_cols=w1_cols,
        interference_cols=None if scheme.scenario.r1 else w2_cols,
        powers=p1,
    )
    r2 = _receiver_rate(
        channel.rx2,
        channel.spectral_norm("rx2"),
        signal_cols=w2_cols,
        interference_cols=None if scheme.scenario.r2 else w1_cols,
        powers=p2,
    )
    return r1, r2


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


def _validate_grid(rho_grid) -> tuple[float, ...]:
    grid = tuple(float(r) for r in rho_grid)
    if len(grid) < 3:
        raise ValueError("rho grid must have at least 3 points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("rho grid must be strictly increasing")
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
    r1_list, r2_list = [], []
    for rho in grid:
        r1, r2 = achievable_rates(scheme, channel, rho)
        r1_list.append(r1)
        r2_list.append(r2)
    sums = np.array(r1_list) + np.array(r2_list)
    slope, intercept = fit_loglinear_slope(np.array(grid), sums)
    return RateSweep(
        rho_grid=grid,
        r1_rates=tuple(r1_list),
        r2_rates=tuple(r2_list),
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
    for trial in range(trials):
        channel = sample_channel(config, seed=seed + trial)
        scheme = build_scheme(config, scenario, d1, d2, channel, seed=seed + trial)
        sweep = estimate_dof_slope(scheme, channel, grid)
        r1_acc += np.array(sweep.r1_rates)
        r2_acc += np.array(sweep.r2_rates)
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
