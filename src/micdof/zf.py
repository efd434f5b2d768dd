"""Zero-forcing beamforming schemes realizing achievable DOF points.

For a target point (d1, d2), message W1 is sent from transmitter 1, joined by
transmitter 2 when that one is cognitive, and min(d1, r1) of its streams,
r1 = (m1 + t2*m2 - n2)^+, are placed in the null space of the cross channel to
receiver 2 so they cause no interference there; remaining streams are
isotropic on the unit sphere of the active transmit space.  W2 is built
symmetrically against receiver 1.  A cognitive receiver subtracts every
stream of the message it knows, so no nulling is aimed at it.  ``_nulled`` is
the one place the nulled counts are decided: the schemes null exactly the
streams that the null residual checks.  Decodability is verified by subspace
rank diagnostics on concrete channels.

A message's precoder is one (m1+m2, d) block over the full transmit space,
zero on the rows of a transmitter that does not carry it.  Trials are built
and judged in batches that share (config, point) (``_Trials``), one
(B, m1+m2, d) stack per message, so each rank costs one batched SVD per
batch.  numpy picks its BLAS call by shapes and strides, so the bits of a
scheme alone are kept: projections run in groups of equal interference rank
on views with one scheme's shapes, and norms as stacked matmuls, one BLAS
ddot per row and one gemv per column (``_norms``, ``_column_norms``), where
``einsum``, a batched ``np.linalg.norm`` or a strided column sum would add in
another order.  ``ZfScheme`` is the public record of one scheme;
``build_scheme`` and the scalar checks are batches of one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import (
    RANK_RTOL,
    AntennaConfig,
    ChannelRealization,
    CognitionScenario,
    _generators,
    _links,
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
    entry is 0.  Schemes compare and hash by identity.
    """

    config: AntennaConfig
    scenario: CognitionScenario
    d1: int
    d2: int
    w1: np.ndarray
    w2: np.ndarray


class _Trials(NamedTuple):
    """Trials that share (config, point): ``cells`` are (scenario, channels)
    runs, one trial per channel, in trial order, and ``w1`` (B, m1+m2, d1)
    and ``w2`` (B, m1+m2, d2) the trials' blocks, laid out as in ZfScheme."""

    config: AntennaConfig
    d1: int
    d2: int
    cells: list
    w1: np.ndarray
    w2: np.ndarray

    @property
    def channels(self) -> list[ChannelRealization]:
        return [ch for _, channels in self.cells for ch in channels]


def _stacked(schemes: list[ZfScheme], channels: list[ChannelRealization]) -> _Trials:
    """Schemes that share (config, point), each on its channel, as one batch;
    the channels must match the schemes' configuration."""
    s = schemes[0]
    if not all(ch.matches(s.config) for ch in channels):
        raise ValueError("channel does not match the scheme's configuration")
    return _Trials(s.config, s.d1, s.d2, [(x.scenario, [ch]) for x, ch in zip(schemes, channels)],
                   np.array([x.w1 for x in schemes]), np.array([x.w2 for x in schemes]))


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


def _nulled(config: AntennaConfig, scenario: CognitionScenario, d1: int, d2: int):
    """How many W1 (W2) streams are nulled: none when the opposite receiver is
    cognitive, else as many as fit in the cross channel's kernel, r1 (r2)."""
    m1, m2 = config.m1, config.m2
    r1 = _pos(m1 + (m2 if scenario.t2 else 0) - config.n2)
    r2 = _pos((m1 if scenario.t1 else 0) + m2 - config.n1)
    return (0 if scenario.r2 else min(d1, r1)), (0 if scenario.r1 else min(d2, r2))


def _norm(vec: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D real vector, to the bit: numpy takes
    sqrt(vec . vec) too, and both square roots are correctly rounded."""
    return math.sqrt(float(vec.dot(vec)))


def _norms(rows: np.ndarray) -> np.ndarray:
    """``_norm`` of each row of a C-contiguous (N, n) array, to the bit: the
    stacked (1, n) @ (n, 1) matmul runs one BLAS ddot per row."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def _column_norms(h: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The (G, k) norms of h[i] @ block[i][:, j] for stacks h (G, n, m) and
    block (G, m, k), to the bit of ``_norm(h[i] @ block[i][:, j].copy())``:
    the stacked matmul runs one BLAS gemv per contiguous column."""
    received = h[:, None] @ np.ascontiguousarray(np.swapaxes(block, 1, 2))[..., None]
    return _norms(received.reshape(-1, h.shape[1])).reshape(len(h), -1)


def _isotropic(rng: np.random.Generator, sizes: list[int]) -> np.ndarray:
    """Unnormalised isotropic vectors of ``sizes`` drawn one at a time, end to end;
    one of norm 0 (probability zero, but keep the loop total) is drawn again."""
    vectors = []
    for size in sizes:
        vec = rng.standard_normal(size)
        while _norm(vec) == 0.0:
            vec = rng.standard_normal(size)
        vectors.append(vec)
    return np.concatenate(vectors)


def _schemes(config: AntennaConfig, cells) -> dict[tuple[int, int], _Trials]:
    """The schemes of cells (scenario, point, channels, seed), one batch per
    point: trial t of a cell runs on channels[t] with vector seed seed + t.

    A message's first k streams (``_nulled``) are the first k rows of the null
    basis of its cross link, read only when k > 0; it draws the rest on its
    active rows, W1's first, from a generator in the state of
    ``np.random.default_rng([seed mod 2**64, d1, d2])``: one batch of states
    (``_generators``) and one standard_normal call per trial that draws,
    which gives the numbers of one call per vector (``_isotropic`` redraws
    when a vector, hence each of its squares, is 0).  Each trial is placed
    once per message, in the group of its (point, message, active length, k),
    and a group is written with two fancy assignments: its stacked basis rows,
    and its drawn vectors, read from their flat offsets and normalised with
    one ``_norms`` call.
    """
    dim, plans, by_link = config.m1 + config.m2, {}, {}
    for scenario, (d1, d2), channels, seed in cells:
        active = (dim if scenario.t2 else config.m1, dim if scenario.t1 else config.m2)
        # (streams, active length, cross link, nulled count) per message
        messages = tuple(zip((d1, d2), active, _cross_links(scenario),
                             _nulled(config, scenario, d1, d2)))
        for _, _, link, k in messages:
            if k:
                by_link.setdefault(link, {}).update(dict.fromkeys(channels))
        plans.setdefault((d1, d2), []).append((scenario, channels, seed, messages))
    for link, linked in by_link.items():
        ChannelRealization.null_bases(list(linked), link)
    batches, groups, draws, entropy, end = {}, {}, [], [], 0
    for point, plan in plans.items():
        size = sum(len(channels) for _, channels, _, _ in plan)
        batches[point] = _Trials(config, *point, [(sc, chs) for sc, chs, _, _ in plan],
                                 np.zeros((size, dim, point[0])), np.zeros((size, dim, point[1])))
        item = 0
        for scenario, channels, seed, messages in plan:
            n, sizes = len(channels), [a for s, a, _, k in messages for _ in range(s - k)]
            offset, stride = end, sum(sizes)  # a trial's draws: W1's, then W2's
            for m, (streams, a, link, k) in enumerate(messages):
                if streams:
                    items, bases, firsts = groups.setdefault((point, m, a, k), ([], [], []))
                    items.extend(range(item, item + n))
                    if k:
                        bases.extend(b[:k] for b in ChannelRealization.null_bases(channels, link))
                    if k < streams:
                        firsts.extend(range(offset, offset + n * stride, stride))
                        offset += (streams - k) * a
            if sizes:
                draws.extend([sizes] * n)
                entropy.extend(((seed + t) & (2**64 - 1), *point) for t in range(n))
            item, end = item + n, end + n * stride
    flat = np.concatenate([np.empty(0)] + [rng.standard_normal(sum(sizes))
                                           for sizes, rng in zip(draws, _generators(entropy))])
    if not (flat * flat).all():
        flat = np.concatenate([_isotropic(rng, sizes)
                               for sizes, rng in zip(draws, _generators(entropy))])
    for (point, m, a, k), (items, bases, firsts) in groups.items():
        block = batches[point].w2 if m else batches[point].w1
        rows, streams = slice(dim - a, dim) if m else slice(a), block.shape[2]
        if k:
            block[items, rows, :k] = np.swapaxes(np.array(bases), 1, 2)
        if k < streams:
            vectors = flat[np.add.outer(firsts, np.arange((streams - k) * a))].reshape(-1, a)
            vectors /= _norms(vectors)[:, None]
            block[items, rows, k:] = np.swapaxes(vectors.reshape(len(items), -1, a), 1, 2)
    return batches


def _require_achievable(config: AntennaConfig, scenario: CognitionScenario, d1, d2) -> None:
    if (d1, d2) != (int(d1), int(d2)) or not _achievable(config, scenario, d1, d2):
        raise AchievabilityError(
            f"point ({d1},{d2}) is not in the achievable integer set for "
            f"config {config}, scenario {scenario}"
        )


def build_scheme(config: AntennaConfig, scenario: CognitionScenario, d1: int, d2: int,
                 channel: ChannelRealization, seed: int) -> ZfScheme:
    """The zero-forcing scheme for an achievable point, deterministic given all
    arguments: ``_schemes`` for one trial.  Rejects points outside the
    achievable integer set and channels that do not match the configuration."""
    if not channel.matches(config):
        raise ValueError(
            f"channel realization has shapes for {channel.config}, expected {config}"
        )
    _require_achievable(config, scenario, d1, d2)
    trials = _schemes(config, [(scenario, (d1, d2), [channel], seed)])[d1, d2]
    return ZfScheme(config, scenario, d1, d2, trials.w1[0], trials.w2[0])


def _receiver(rx, scale, signal, interference, cognitive, antennas: int):
    """One receiver for a batch of B schemes that share (config, point).

    ``rx`` (B, n, m1+m2) and ``scale`` (B,) are each item's channel to the
    receiver and its spectral norm, ``signal`` and ``interference`` the blocks
    of the intended and the other message, ``cognitive`` flags receivers that
    subtract the other message.  Returns per item the ranks (relative to the
    channel norm) of H W_s and of the residual H W_i, the signal dimensions
    lost when H W_s is projected off the span of H W_i, whether the message is
    decodable, and the projected signal's singular values (B, min(n, d)).
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


def _receivers(trials: _Trials):
    """Both receivers' ``_receiver`` results for a batch, each trial on its
    channel: receiver 1 decodes W1 against W2, receiver 2 W2 against W1."""
    channels, config = trials.channels, trials.config
    return tuple(
        _receiver(_links(channels, link), ChannelRealization.spectral_norms(channels, link),
                  signal, interference,
                  [getattr(sc, flag) for sc, chs in trials.cells for _ in chs], antennas)
        for link, flag, signal, interference, antennas in (
            ("rx1", "r1", trials.w1, trials.w2, config.n1),
            ("rx2", "r2", trials.w2, trials.w1, config.n2),
        )
    )


def verify_scheme(scheme: ZfScheme, channel: ChannelRealization) -> SchemeDiagnostics:
    """Rank diagnostics of a scheme on a concrete channel: at each receiver,
    the ranks of the received signal and of the residual interference (zero
    at a cognitive receiver) and the signal dimensions lost when the signal
    is projected off the interference span."""
    rx1, rx2 = _receivers(_stacked([scheme], [channel]))
    return SchemeDiagnostics(*(part[0] for part in (*rx1[:3], *rx2[:3], rx1[3], rx2[3])))


def _null_residuals(trials: _Trials) -> np.ndarray:
    """Per trial, the worst relative leakage ||H w|| / ||H|| of its nulled
    streams at the opposite receiver (0 when none is nulled): one
    ``_column_norms`` per message, cross link and nulled count."""
    dim, groups, start = trials.config.m1 + trials.config.m2, {}, 0
    for scenario, channels in trials.cells:
        nulled = _nulled(trials.config, scenario, trials.d1, trials.d2)
        for m, link, count in zip((0, 1), _cross_links(scenario), nulled):
            if count:
                groups.setdefault((m, link, count), []).extend(range(start, start + len(channels)))
        start += len(channels)
    worst, channels = np.zeros(start), trials.channels
    for (m, link, count), sel in groups.items():
        linked = [channels[i] for i in sel]
        h, norms = _links(linked, link), ChannelRealization.spectral_norms(linked, link)
        rows = slice(dim - h.shape[2], dim) if m else slice(h.shape[2])
        leaks = _column_norms(h, (trials.w2 if m else trials.w1)[sel, rows, :count])
        worst[sel] = np.maximum(worst[sel], leaks.max(axis=1) / norms)
    return worst


def null_residual(scheme: ZfScheme, channel: ChannelRealization) -> float:
    """Worst relative leakage ||H w|| / ||H|| of the nulled streams at the opposite receiver."""
    return float(_null_residuals(_stacked([scheme], [channel]))[0])


def _transmit_ranks(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Rank of each item's d1 + d2 transmit vectors, at unit scale."""
    stacked = np.concatenate([w1, w2], axis=2)
    return _ranks(np.linalg.svd(stacked, compute_uv=False), np.ones(len(stacked)))


def transmit_rank(scheme: ZfScheme) -> int:
    """Rank of all d1 + d2 transmit vectors in R^(m1+m2)."""
    return int(_transmit_ranks(scheme.w1[None], scheme.w2[None])[0])


def _verdicts(trials: _Trials) -> list[tuple[tuple[str, ...], float]]:
    """Per trial of a batch, the criteria of the pass rule it fails (empty when
    it passes): "decodable" (both receivers' diagnostics), "null residual"
    (at most RANK_RTOL) and "transmit rank" (the d1 + d2 vectors are
    independent); and its null residual."""
    rx1, rx2 = _receivers(trials)
    streams, names = trials.d1 + trials.d2, ("decodable", "null residual", "transmit rank")
    verdicts = []
    for dec1, dec2, residual, rank in zip(rx1[3], rx2[3], _null_residuals(trials).tolist(),
                                          _transmit_ranks(trials.w1, trials.w2).tolist()):
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
    """Sweep cells (scenario, point, channels, seed) of one configuration:
    trial t of a cell runs on channels[t] with vector seed seed + t, and the
    trials of the cells that share a point are built and judged as one batch,
    whose verdicts come back in the order its cells were added."""
    batches = _schemes(config, cells)
    verdicts = {point: iter(_verdicts(trials)) for point, trials in batches.items()}
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
        sampled = sample_channels(config, [s + t for s in cell_seeds for t in range(trials)])
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
