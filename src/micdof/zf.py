"""Zero-forcing beamforming schemes realizing achievable DOF points.

For a target point (d1, d2), message W1 is sent from transmitter 1, joined by
transmitter 2 when that one is cognitive, and up to
r1 = (m1 + t2*m2 - n2)^+ of its streams are placed in the null space of the
cross channel to receiver 2 so they cause no interference there; remaining
streams are isotropic on the unit sphere of the active transmit space.  W2 is
built symmetrically against receiver 1.  A cognitive receiver subtracts every
stream of the message it knows, so no nulling is aimed at it.  Decodability
is verified by subspace rank diagnostics on concrete channels.

A message's precoder is one (m1+m2, d) block over the full transmit space,
zero on the rows of a transmitter that does not carry it.  Trials are judged
in batches that share (config, point); scenario, channel and blocks are
per-scheme data, stacked on a leading axis, so each rank costs one batched
SVD per batch, and a cognitive receiver's interference rank is masked to 0.
Schemes are projected off their interference span in groups of equal
interference rank, through views with one scheme's own shapes and strides:
numpy picks its BLAS call by both, so a zero-masked wider span would change
the last bits.  A single scheme is a batch of one.  Isotropic streams are
normalised one at a time, and the null residual is a norm per nulled column,
taken on a contiguous copy of its active rows: a batched norm or a strided
column would not reproduce the bits either.  ``_schemes`` builds a batch of
cells with one batched SVD per cross link for the null bases and one batch of
generator states, equal to ``np.random.default_rng``'s, for the trials that
draw isotropic streams.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    RANK_RTOL,
    AntennaConfig,
    ChannelRealization,
    CognitionScenario,
    _generators,
    _ranks,
    sample_channels,
)
from .regions import _achievable, _pos, inner_points


class AchievabilityError(ValueError):
    """Raised for DOF points outside the achievable integer set."""


@dataclass(frozen=True, eq=False)
class ZfScheme:
    """Transmit vectors and stream counts realizing one DOF point.

    ``w1`` (m1+m2, d1) and ``w2`` (m1+m2, d2) hold each message's unit
    transmit vectors as columns of the full transmit space, transmitter 1's
    rows over transmitter 2's.  W1's active rows (transmitter 1, then
    transmitter 2 when cognitive) are a prefix, W2's a suffix, and every other
    entry is 0.  ``r1``/``r2`` are the nullable stream counts against the
    opposite receiver.  Schemes compare and hash by identity.
    """

    config: AntennaConfig
    scenario: CognitionScenario
    d1: int
    d2: int
    w1: np.ndarray
    w2: np.ndarray

    @property
    def r1(self) -> int:
        return _nullable(self.config, self.scenario)[0]

    @property
    def r2(self) -> int:
        return _nullable(self.config, self.scenario)[1]

    @property
    def w1_nulled(self) -> int:
        """How many W1 columns were drawn from the cross-channel kernel."""
        return _nulled(self)[0]

    @property
    def w2_nulled(self) -> int:
        return _nulled(self)[1]


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


def _cross_links(scenario: CognitionScenario) -> tuple[str, str]:
    """The links from W1's active transmit space to receiver 2, and W2's to 1."""
    return ("rx2" if scenario.t2 else "h41"), ("rx1" if scenario.t1 else "h32")


def _nullable(config: AntennaConfig, scenario: CognitionScenario) -> tuple[int, int]:
    """r1, r2: how many streams of W1 (W2) fit in the cross channel's kernel."""
    m1, m2 = config.m1, config.m2
    r1 = _pos(m1 + (m2 if scenario.t2 else 0) - config.n2)
    return r1, _pos((m1 if scenario.t1 else 0) + m2 - config.n1)


def _nulled(scheme: ZfScheme) -> tuple[int, int]:
    """How many W1 (W2) streams are nulled: none when the opposite receiver is
    cognitive, else as many as fit in the cross channel's kernel."""
    r1, r2 = _nullable(scheme.config, scheme.scenario)
    sc = scheme.scenario
    return (0 if sc.r2 else min(scheme.d1, r1)), (0 if sc.r1 else min(scheme.d2, r2))


def _norm(vec: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D real vector, to the bit: numpy takes
    sqrt(vec . vec) too, and both square roots are correctly rounded."""
    return math.sqrt(float(vec.dot(vec)))


def _isotropic(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.standard_normal(dim)
    norm = _norm(vec)
    while norm == 0.0:  # probability zero, but keep the loop total
        vec = rng.standard_normal(dim)
        norm = _norm(vec)
    return vec / norm


def _schemes(config: AntennaConfig, cells) -> list[ZfScheme]:
    """The schemes of cells (scenario, point, channels, seed), trial by trial:
    trial t of a cell runs on channels[t] with vector seed seed + t.

    W1's and W2's (m1+m2, d) blocks: a message takes its first streams from
    the null basis of its cross link (none when the opposite receiver is
    cognitive) and draws the rest isotropically on its active rows, W1's
    before W2's, from a generator in the state that
    ``np.random.default_rng([seed mod 2**64, d1, d2])`` starts in.  The null
    bases the cells read come from one batched SVD per cross link, and the
    states of the trials that draw from one batch (``_generators``); a trial
    whose streams are all nulled computes none.
    """
    dim = config.m1 + config.m2
    plans, by_link, schemes, draws, entropy = [], {}, [], [], []
    for scenario, (d1, d2), channels, seed in cells:
        link1, link2 = _cross_links(scenario)
        messages = (  # (streams, active rows, cross link, nulled against it)
            (d1, slice(0, dim if scenario.t2 else config.m1), link1, d1 and not scenario.r2),
            (d2, slice(0 if scenario.t1 else config.m1, dim), link2, d2 and not scenario.r1),
        )
        for _, _, link, nullable in messages:
            if nullable:
                by_link.setdefault(link, {}).update(dict.fromkeys(channels))
        plans.append((scenario, d1, d2, channels, seed, messages))
    for link, linked in by_link.items():
        ChannelRealization.null_bases(list(linked), link)
    for scenario, d1, d2, channels, seed, messages in plans:
        for trial, channel in enumerate(channels):
            blocks = []
            for streams, rows, link, nullable in messages:
                basis = channel.null_basis(link)[:streams] if nullable else ()
                block = np.zeros((dim, streams))
                if nullable:
                    block[rows, :len(basis)] = basis.T
                blocks.append((block, rows, len(basis)))
            if any(nulled < block.shape[1] for block, _, nulled in blocks):
                draws.append(blocks)
                entropy.append(((seed + trial) & (2**64 - 1), d1, d2))
            schemes.append(ZfScheme(config, scenario, d1, d2, blocks[0][0], blocks[1][0]))
    for blocks, rng in zip(draws, _generators(entropy)):
        for block, rows, nulled in blocks:
            for j in range(nulled, block.shape[1]):
                block[rows, j] = _isotropic(rng, rows.stop - rows.start)
    return schemes


def _require_achievable(config: AntennaConfig, scenario: CognitionScenario, d1, d2) -> None:
    if (d1, d2) != (int(d1), int(d2)) or not _achievable(config, scenario, d1, d2):
        raise AchievabilityError(
            f"point ({d1},{d2}) is not in the achievable integer set for "
            f"config {config}, scenario {scenario}"
        )


def build_scheme(
    config: AntennaConfig,
    scenario: CognitionScenario,
    d1: int,
    d2: int,
    channel: ChannelRealization,
    seed: int,
) -> ZfScheme:
    """Construct the zero-forcing scheme for an achievable point: ``_schemes``
    for one cell of one trial.

    Deterministic given all arguments.  Rejects points outside the
    achievable integer set and channels that do not match the configuration.
    """
    if not channel.matches(config):
        raise ValueError(
            f"channel realization has shapes for {channel.config}, expected {config}"
        )
    _require_achievable(config, scenario, d1, d2)
    return _schemes(config, [(scenario, (d1, d2), [channel], seed)])[0]


def _receiver(rx, scale, signal, interference, cognitive, antennas: int):
    """One receiver for a batch of B schemes that share (config, point).

    ``rx`` (B, n, m1+m2) and ``scale`` (B,) are each item's channel to the
    receiver and its spectral norm, ``signal`` and ``interference`` the
    stacked blocks of the intended and the other message, and
    ``cognitive`` flags receivers that subtract the other message.  Returns
    lists of the per-item ranks of H W_s and of the residual interference
    H W_i, the dimension of their intersection (the signal dimensions lost
    when H W_s is projected off the span of H W_i) and whether the message is
    decodable, and the singular values of the projected signal
    (B, min(n, d)), the effective channel decoded in.  Ranks are relative to
    the channel norm.
    """
    batch, _, streams = signal.shape
    received = rx @ signal
    projected = np.linalg.svd(received, compute_uv=False)  # until interference is off
    signal_dim = _ranks(projected, scale).tolist()
    interference_dim = intersection_dim = [0] * batch
    if interference.shape[2] and not all(cognitive):
        u, spectrum, _ = np.linalg.svd(rx @ interference, full_matrices=False)
        ranks = _ranks(spectrum, scale).tolist()
        interference_dim = [0 if c else r for c, r in zip(cognitive, ranks)]
        if streams and any(interference_dim):
            # Groups of equal rank, one scheme's shapes (see module docstring).
            kept = received.copy()
            for dim in set(interference_dim) - {0}:
                sel = [i == dim for i in interference_dim]
                sel = slice(None) if all(sel) else np.array(sel)
                span = u[sel][:, :, :dim]
                kept[sel] = received[sel] - span @ (np.swapaxes(span, 1, 2) @ received[sel])
            projected = np.linalg.svd(kept, compute_uv=False)
            ranks = _ranks(projected, scale).tolist()
            intersection_dim = [max(s - r, 0) for s, r in zip(signal_dim, ranks)]
    decodable = [
        s == streams and x == 0 and s + i <= antennas
        for s, i, x in zip(signal_dim, interference_dim, intersection_dim)
    ]
    return signal_dim, interference_dim, intersection_dim, decodable, projected


def _receivers(schemes: list[ZfScheme], channels: list[ChannelRealization]):
    """Both receivers' ``_receiver`` results for schemes that share (config,
    point), each on its channel, over the batch axis.  Receiver 1 decodes W1
    against W2, receiver 2 decodes W2 against W1.
    """
    config = schemes[0].config
    w1 = np.array([s.w1 for s in schemes])
    w2 = np.array([s.w2 for s in schemes])
    return tuple(
        _receiver(
            np.array([getattr(ch, link) for ch in channels]),
            ChannelRealization.spectral_norms(channels, link),
            signal, interference, [getattr(s.scenario, flag) for s in schemes], antennas,
        )
        for link, flag, signal, interference, antennas in (
            ("rx1", "r1", w1, w2, config.n1), ("rx2", "r2", w2, w1, config.n2),
        )
    )


def _receiver_models(
    schemes: list[ZfScheme], channels: list[ChannelRealization]
) -> list[tuple[SchemeDiagnostics, np.ndarray, np.ndarray]]:
    """Per scheme, the rank diagnostics and, per receiver, the projected
    singular values (see ``_receiver``).  Channels must match the schemes'
    configuration."""
    config = schemes[0].config
    if not all(ch.matches(config) for ch in channels):
        raise ValueError("channel does not match the scheme's configuration")
    rx1, rx2 = _receivers(schemes, channels)
    counts = zip(*rx1[:3], *rx2[:3], rx1[3], rx2[3])
    return [(SchemeDiagnostics(*c), p1, p2) for c, p1, p2 in zip(counts, rx1[4], rx2[4])]


def verify_scheme(scheme: ZfScheme, channel: ChannelRealization) -> SchemeDiagnostics:
    """Rank diagnostics of a scheme on a concrete channel.

    At each receiver: rank of the received intended-signal subspace, rank of
    the residual interference (zero for a cognitive receiver, which subtracts
    the known message), and the dimension of their intersection: the signal
    dimensions lost when the signal is projected off the interference span.
    """
    return _receiver_models([scheme], [channel])[0][0]


def null_residual(scheme: ZfScheme, channel: ChannelRealization) -> float:
    """Worst relative leakage ||H w|| / ||H|| of the nulled streams at the
    opposite receiver, one column at a time."""
    worst = 0.0
    for link, block, nulled, at_end in zip(
        _cross_links(scheme.scenario), (scheme.w1, scheme.w2), _nulled(scheme), (False, True)
    ):
        if nulled:
            h = getattr(channel, link)
            rows = slice(len(block) - h.shape[1], None) if at_end else slice(h.shape[1])
            norm = channel.spectral_norm(link)
            for j in range(nulled):
                # A contiguous copy: a strided column changes the product's last bits.
                worst = max(worst, _norm(h @ block[rows, j].copy()) / norm)
    return worst


def _transmit_ranks(schemes: list[ZfScheme]) -> np.ndarray:
    """Rank of each scheme's d1 + d2 transmit vectors, at unit scale."""
    stacked = np.concatenate(
        [np.array([s.w1 for s in schemes]), np.array([s.w2 for s in schemes])], axis=2
    )
    return _ranks(np.linalg.svd(stacked, compute_uv=False), np.ones(len(stacked)))


def transmit_rank(scheme: ZfScheme) -> int:
    """Rank of all d1 + d2 transmit vectors in R^(m1+m2)."""
    return int(_transmit_ranks([scheme])[0])


def _verdicts(
    schemes: list[ZfScheme], channels: list[ChannelRealization]
) -> list[tuple[tuple[str, ...], float]]:
    """Judge a batch of trials that share (config, point) by the pass rule,
    each scheme on its channel.

    Returns per trial the criteria it fails (empty when it passes):
    "decodable" (both receivers' diagnostics), "null residual" (at most
    RANK_RTOL) and "transmit rank" (the d1 + d2 vectors are independent); and
    its null residual.
    """
    rx1, rx2 = _receivers(schemes, channels)
    streams = schemes[0].d1 + schemes[0].d2
    names = ("decodable", "null residual", "transmit rank")
    verdicts = []
    for scheme, channel, dec1, dec2, rank in zip(
        schemes, channels, rx1[3], rx2[3], _transmit_ranks(schemes).tolist()
    ):
        residual = null_residual(scheme, channel)
        oks = (dec1 and dec2, residual <= RANK_RTOL, rank == streams)
        verdicts.append((tuple(n for n, ok in zip(names, oks) if not ok), residual))
    return verdicts


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


def _sweep_cells(config: AntennaConfig, cells: list[tuple]) -> list[SweepCell]:
    """Sweep cells (scenario, point, channels, seed) of one configuration.

    Trial t of a cell runs on channels[t] with vector seed seed + t; the
    schemes of all cells are built as one batch (``_schemes``), and the
    trials of all cells that share a point are judged in one batch.
    """
    schemes = iter(_schemes(config, cells))
    groups: dict[tuple[int, int], tuple[list, list]] = {}
    for _, point, channels, _ in cells:
        group_schemes, group_channels = groups.setdefault(point, ([], []))
        group_schemes.extend(itertools.islice(schemes, len(channels)))
        group_channels.extend(channels)
    # A group's verdicts come back in the order its cells were added.
    verdicts = {point: iter(_verdicts(*group)) for point, group in groups.items()}
    tallies = []
    for scenario, point, channels, _ in cells:
        chunk = list(itertools.islice(verdicts[point], len(channels)))
        passes = sum(not failed for failed, _ in chunk)
        worst = max((residual for _, residual in chunk), default=0.0)
        tallies.append(SweepCell(config, scenario, point, len(chunk), passes, worst))
    return tallies


def achievability_sweep(max_antennas: int, trials: int, seed: int = 0) -> SweepReport:
    """Build and verify schemes for every achievable point of every channel.

    Covers all antenna configurations with counts in 1..max_antennas, all 16
    cognition scenarios, every point of the achievable integer set, and
    ``trials`` random channels per point; a configuration's channels, all
    scenarios' trials, are sampled as one batch.  Failures are recorded in
    the report, not raised.
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
        cell_seeds = [_derived_seed(seed, counts, s) for s in range(len(scenarios))]
        sampled = sample_channels(
            config, [cell_seed + trial for cell_seed in cell_seeds for trial in range(trials)]
        )
        config_cells = []
        for s_index, (scenario, cell_seed) in enumerate(zip(scenarios, cell_seeds)):
            channels = sampled[s_index * trials : (s_index + 1) * trials]
            for point in sorted(inner_points(config, scenario).points):
                config_cells.append((scenario, point, channels, cell_seed))
        cells.extend(_sweep_cells(config, config_cells))
    return SweepReport(cells=tuple(cells))


def _derived_seed(seed: int, counts: tuple[int, int, int, int], s_index: int) -> int:
    mixed = seed & (2**32 - 1)
    for part in (*counts, s_index):
        mixed = (mixed * 1_000_003 + part + 1) % (2**63 - 1)
    return mixed
