"""Zero-forcing beamforming schemes realizing achievable DOF points.

For a target point (d1, d2), message W1 is sent from transmitter 1 (joined by
transmitter 2 when that one is cognitive, as a stacked vector), and up to
r1 = (m1 + t2*m2 - n2)^+ of its streams are placed in the null space of the
cross channel to receiver 2 so they cause no interference there; remaining
streams are isotropic on the unit sphere of the active transmit space.  W2 is
built symmetrically against receiver 1.  A cognitive receiver subtracts every
stream of the message it knows, so no nulling is aimed at it.  Decodability
is verified by subspace rank diagnostics on concrete channels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channel import (
    RANK_RTOL,
    AntennaConfig,
    ChannelRealization,
    CognitionScenario,
    _rank,
    _singular_values,
    matrix_rank,
    null_space,
    sample_channel,
)
from .regions import _achievable, _pos, inner_points


class AchievabilityError(ValueError):
    """Raised for DOF points outside the achievable integer set."""


@dataclass(frozen=True)
class ZfScheme:
    """Transmit vectors and stream counts realizing one DOF point.

    ``w1_vectors`` live in W1's active transmit space (length m1 + t2*m2,
    transmitter 1 stacked over transmitter 2 when the latter is cognitive);
    ``w2_vectors`` live in W2's (length t1*m1 + m2).  ``r1``/``r2`` are the
    nullable stream counts against the opposite receiver.
    """

    config: AntennaConfig
    scenario: CognitionScenario
    d1: int
    d2: int
    r1: int
    r2: int
    w1_vectors: tuple[np.ndarray, ...]
    w2_vectors: tuple[np.ndarray, ...]

    @property
    def w1_nulled(self) -> int:
        """How many W1 vectors were drawn from the cross-channel kernel."""
        return 0 if self.scenario.r2 else min(self.d1, self.r1)

    @property
    def w2_nulled(self) -> int:
        return 0 if self.scenario.r1 else min(self.d2, self.r2)

    def w1_embedded(self) -> np.ndarray:
        """W1 vectors as columns in the full (m1+m2)-dim transmit space."""
        return _embedded(self.w1_vectors, self.config.m1 + self.config.m2, at_end=False)

    def w2_embedded(self) -> np.ndarray:
        return _embedded(self.w2_vectors, self.config.m1 + self.config.m2, at_end=True)


def _embedded(vectors: tuple[np.ndarray, ...], dim: int, at_end: bool) -> np.ndarray:
    """Vectors of an active transmit space as columns of R^dim.

    W1's active space (transmitter 1, then transmitter 2 when cognitive) is a
    prefix of the full transmit space; W2's is a suffix.
    """
    out = np.zeros((dim, len(vectors)))
    if vectors:
        cols = np.array(vectors).T
        start = dim - cols.shape[0] if at_end else 0
        out[start : start + cols.shape[0]] = cols
    return out


@dataclass(frozen=True)
class SchemeDiagnostics:
    """Subspace dimension counts at both receivers, plus decodability flags.

    A message is decodable when its signal subspace has full dimension d_i,
    meets the residual interference only at the origin, and both fit inside
    the receiver's antenna count.  Cognitive receivers subtract the known
    message, so their residual interference is zero by construction.
    """

    signal_dim_rx1: int
    interference_dim_rx1: int
    intersection_dim_rx1: int
    signal_dim_rx2: int
    interference_dim_rx2: int
    intersection_dim_rx2: int
    decodable_w1: bool
    decodable_w2: bool

    @property
    def all_decodable(self) -> bool:
        return self.decodable_w1 and self.decodable_w2


def _cross_link_w1(t2: bool) -> str:
    """Name of the link from W1's active transmit space to receiver 2."""
    return "rx2" if t2 else "h41"


def _cross_link_w2(t1: bool) -> str:
    return "rx1" if t1 else "h32"


def _isotropic(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.standard_normal(dim)
    norm = np.linalg.norm(vec)
    while norm == 0.0:  # probability zero, but keep the loop total
        vec = rng.standard_normal(dim)
        norm = np.linalg.norm(vec)
    return vec / norm


def _message_vectors(
    rng: np.random.Generator,
    streams: int,
    active_dim: int,
    channel: ChannelRealization,
    cross_link: str,
    opposite_cognitive: bool,
) -> list[np.ndarray]:
    vectors: list[np.ndarray] = []
    if streams == 0:
        return vectors
    if not opposite_cognitive:
        vectors.extend(channel.null_basis(cross_link)[:streams])
    while len(vectors) < streams:
        vectors.append(_isotropic(rng, active_dim))
    return vectors


def build_scheme(
    config: AntennaConfig,
    scenario: CognitionScenario,
    d1: int,
    d2: int,
    channel: ChannelRealization,
    seed: int,
) -> ZfScheme:
    """Construct the zero-forcing scheme for an achievable point.

    Deterministic given all arguments.  Rejects points outside the
    achievable integer set and channels that do not match the configuration.
    """
    if not channel.matches(config):
        raise ValueError(
            f"channel realization has shapes for {channel.config}, expected {config}"
        )
    if (d1, d2) != (int(d1), int(d2)) or not _achievable(config, scenario, d1, d2):
        raise AchievabilityError(
            f"point ({d1},{d2}) is not in the achievable integer set for "
            f"config {config}, scenario {scenario}"
        )
    m1, m2 = config.m1, config.m2
    r1 = _pos(m1 + (m2 if scenario.t2 else 0) - config.n2)
    r2 = _pos((m1 if scenario.t1 else 0) + m2 - config.n1)
    rng = np.random.default_rng([seed & (2**64 - 1), d1, d2])
    w1 = _message_vectors(
        rng,
        streams=d1,
        active_dim=m1 + (m2 if scenario.t2 else 0),
        channel=channel,
        cross_link=_cross_link_w1(scenario.t2),
        opposite_cognitive=scenario.r2,
    )
    w2 = _message_vectors(
        rng,
        streams=d2,
        active_dim=(m1 if scenario.t1 else 0) + m2,
        channel=channel,
        cross_link=_cross_link_w2(scenario.t1),
        opposite_cognitive=scenario.r1,
    )
    return ZfScheme(
        config=config,
        scenario=scenario,
        d1=d1,
        d2=d2,
        r1=r1,
        r2=r2,
        w1_vectors=tuple(w1),
        w2_vectors=tuple(w2),
    )


def _receiver(
    channel: ChannelRealization,
    link: str,
    signal_cols: np.ndarray,
    interference_cols: np.ndarray | None,
    antennas: int,
) -> tuple[int, int, int, bool, np.ndarray]:
    """One receiver of a scheme on a channel.

    Returns the ranks of the received intended streams H W_s and of the
    residual interference H W_i, the dimension of their intersection (the
    signal dimensions lost when H W_s is projected off the span of H W_i),
    whether the message is decodable, and the singular values of the
    projected signal: the effective channel the receiver decodes in.  Every
    rank is relative to the receiver's channel norm.
    """
    full_channel, scale = getattr(channel, link), channel.spectral_norm(link)
    received = full_channel @ signal_cols
    projected = _singular_values(received)  # until interference is projected off
    signal_dim = _rank(projected, scale)
    interference_dim = intersection_dim = 0
    if interference_cols is not None and interference_cols.shape[1] > 0:
        u, interference, _ = np.linalg.svd(
            full_channel @ interference_cols, full_matrices=False
        )
        interference_dim = _rank(interference, scale)
    if interference_dim:
        span = u[:, :interference_dim]
        projected = _singular_values(received - span @ (span.T @ received))
        intersection_dim = max(signal_dim - _rank(projected, scale), 0)
    decodable = (
        signal_dim == signal_cols.shape[1]
        and intersection_dim == 0
        and signal_dim + interference_dim <= antennas
    )
    return signal_dim, interference_dim, intersection_dim, decodable, projected


def _receiver_model(
    scheme: ZfScheme, channel: ChannelRealization
) -> tuple[SchemeDiagnostics, np.ndarray, np.ndarray]:
    """Both receivers of a scheme on a concrete channel.

    Receiver 1 decodes W1 against the W2 streams, receiver 2 decodes W2
    against the W1 streams; a cognitive receiver subtracts the message it
    knows, so it sees no residual interference.  Returns the rank
    diagnostics and, per receiver, the projected singular values.
    """
    if not channel.matches(scheme.config):
        raise ValueError("channel does not match the scheme's configuration")
    w1_cols = scheme.w1_embedded()
    w2_cols = scheme.w2_embedded()
    r1, r2 = scheme.scenario.r1, scheme.scenario.r2
    n1, n2 = scheme.config.n1, scheme.config.n2
    s1, i1, x1, dec1, projected1 = _receiver(
        channel, "rx1", w1_cols, None if r1 else w2_cols, n1
    )
    s2, i2, x2, dec2, projected2 = _receiver(
        channel, "rx2", w2_cols, None if r2 else w1_cols, n2
    )
    return SchemeDiagnostics(s1, i1, x1, s2, i2, x2, dec1, dec2), projected1, projected2


def verify_scheme(scheme: ZfScheme, channel: ChannelRealization) -> SchemeDiagnostics:
    """Rank diagnostics of a scheme on a concrete channel.

    At each receiver: rank of the received intended-signal subspace, rank of
    the residual interference (zero for a cognitive receiver, which subtracts
    the known message), and the dimension of their intersection: the signal
    dimensions lost when the signal is projected off the interference span.
    """
    return _receiver_model(scheme, channel)[0]


def null_residual(scheme: ZfScheme, channel: ChannelRealization) -> float:
    """Worst relative leakage of the nulled streams at the opposite receiver."""
    worst = 0.0
    for link, nulled in (
        (_cross_link_w1(scheme.scenario.t2), scheme.w1_vectors[: scheme.w1_nulled]),
        (_cross_link_w2(scheme.scenario.t1), scheme.w2_vectors[: scheme.w2_nulled]),
    ):
        cross = getattr(channel, link)
        for v in nulled:
            leak = float(np.linalg.norm(cross @ v))
            worst = max(worst, leak / channel.spectral_norm(link))
    return worst


def transmit_rank(scheme: ZfScheme) -> int:
    """Rank of all d1 + d2 transmit vectors embedded in R^(m1+m2)."""
    stacked = np.hstack([scheme.w1_embedded(), scheme.w2_embedded()])
    return matrix_rank(stacked, scale=1.0)


def _trial_verdict(
    scheme: ZfScheme, channel: ChannelRealization
) -> tuple[tuple[str, ...], float]:
    """Judge one trial by the achievability pass rule.

    Returns the criteria the trial fails (empty when it passes) and the
    scheme's null residual.  The criteria are "decodable" (both messages
    pass the receiver rank diagnostics), "null residual" (at most RANK_RTOL)
    and "transmit rank" (the d1 + d2 transmit vectors are independent).
    """
    residual = null_residual(scheme, channel)
    checks = (
        ("decodable", verify_scheme(scheme, channel).all_decodable),
        ("null residual", residual <= RANK_RTOL),
        ("transmit rank", transmit_rank(scheme) == scheme.d1 + scheme.d2),
    )
    return tuple(name for name, ok in checks if not ok), residual


@dataclass(frozen=True)
class SweepCell:
    """Pass/fail tally for one (config, scenario, point) cell of the sweep."""

    config: AntennaConfig
    scenario: CognitionScenario
    point: tuple[int, int]
    trials: int
    passes: int
    worst_null_residual: float

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "scenario": list(self.scenario.bits),
            "point": list(self.point),
            "trials": self.trials,
            "passes": self.passes,
            "worst_null_residual": self.worst_null_residual,
        }


@dataclass(frozen=True)
class SweepReport:
    """Aggregated achievability sweep results."""

    cells: tuple[SweepCell, ...]

    @property
    def total_trials(self) -> int:
        return sum(c.trials for c in self.cells)

    @property
    def total_passes(self) -> int:
        return sum(c.passes for c in self.cells)

    @property
    def all_passed(self) -> bool:
        return self.total_passes == self.total_trials

    @property
    def worst_null_residual(self) -> float:
        return max((c.worst_null_residual for c in self.cells), default=0.0)

    def failures(self) -> list[SweepCell]:
        return [c for c in self.cells if c.passes != c.trials]

    def to_json_list(self) -> list[dict]:
        return [c.to_json_dict() for c in self.cells]


def _cell_passes(
    config: AntennaConfig,
    scenario: CognitionScenario,
    point: tuple[int, int],
    channels: list[ChannelRealization],
    seed: int,
) -> SweepCell:
    d1, d2 = point
    passes = 0
    worst = 0.0
    for trial, ch in enumerate(channels):
        scheme = build_scheme(config, scenario, d1, d2, ch, seed=seed + trial)
        failed, residual = _trial_verdict(scheme, ch)
        worst = max(worst, residual)
        passes += int(not failed)
    return SweepCell(
        config=config,
        scenario=scenario,
        point=point,
        trials=len(channels),
        passes=passes,
        worst_null_residual=worst,
    )


def achievability_sweep(max_antennas: int, trials: int, seed: int = 0) -> SweepReport:
    """Build and verify schemes for every achievable point of every channel.

    Covers all antenna configurations with counts in 1..max_antennas, all 16
    cognition scenarios, every point of the achievable integer set, and
    ``trials`` random channels per point.  Failures are recorded in the
    report, not raised.
    """
    if max_antennas < 1:
        raise ValueError("max_antennas must be >= 1")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    cells: list[SweepCell] = []
    if trials == 0:
        return SweepReport(cells=())
    scenarios = CognitionScenario.all_scenarios()
    for counts in itertools.product(range(1, max_antennas + 1), repeat=4):
        config = AntennaConfig(*counts)
        for s_index, scenario in enumerate(scenarios):
            cell_seed = _derived_seed(seed, counts, s_index)
            channels = [
                sample_channel(config, seed=cell_seed + trial)
                for trial in range(trials)
            ]
            for point in sorted(inner_points(config, scenario).points):
                cells.append(
                    _cell_passes(config, scenario, point, channels, seed=cell_seed)
                )
    return SweepReport(cells=tuple(cells))


def _derived_seed(seed: int, counts: tuple[int, int, int, int], s_index: int) -> int:
    mixed = seed & (2**32 - 1)
    for part in (*counts, s_index):
        mixed = (mixed * 1_000_003 + part + 1) % (2**63 - 1)
    return mixed
