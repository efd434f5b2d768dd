"""Zero-forcing beamforming schemes realizing achievable DOF points.

For a target point (d1, d2), message W1 is sent from transmitter 1, joined by
transmitter 2 when that one is cognitive, and min(d1, r1) of its streams, r1
being as many as fit in the kernel of the cross channel to receiver 2
(``regions._nullable``), are placed in that kernel so they cause no
interference there; remaining streams are isotropic on the unit sphere of the
active transmit space.  W2 is built symmetrically against receiver 1.  A
cognitive receiver subtracts every stream of the message it knows, so no
nulling is aimed at it, and the other message leaves u = d - (its nulled
count) there, or 0 at a cognitive receiver.  ``_plan`` is the one place this
integer plan is decided: the schemes, the pass rule, the null residual and
the rates read it.

A trial passes when every rank reaches its generic value (``_receivers``):
interference rank u_i and projected signal rank d_i at receiver i, transmit
rank d1 + d2, and a null residual within RANK_RTOL, read from the
interference H W_other each receiver forms (``_null_residuals``).  As
sigma_k(P S) <= sigma_k(S), projected rank d_i implies signal rank d_i; with
interference rank u_i it is joint rank d_i + u_i, which
``regions._inner_caps`` keeps <= n_i.

A message's precoder is one (m1+m2, d) block over the full transmit space,
zero on the rows of a transmitter that does not carry it.  Trials are built
and judged in batches of one stack shape (m1+m2, n1, n2, d1, d2), whatever
configs they mix (``_Trials``), so each rank costs one batched SVD per
batch.  numpy picks its BLAS call by shapes and strides, so the bits of a
scheme alone are kept: projections run in groups of equal u_i on views
with one scheme's shapes, and norms as a stacked matmul, one BLAS ddot per
contiguous row (``_norms``), where ``einsum``, a batched ``np.linalg.norm``
or a strided column sum would add in another order.  ``ZfScheme`` is the
public record of one scheme; ``build_scheme`` and the scalar checks are
batches of one.
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
    _gather,
    _integer,
    _is_integer,
    _links,
    _null_rows,
    _ranks,
    _runs,
    sample_channels,
)
from .regions import _achievable, _nullable, inner_points


class AchievabilityError(ValueError):
    """Raised for DOF points outside the achievable integer set."""


@dataclass(frozen=True, eq=False)
class ZfScheme:
    """Transmit vectors and stream counts realizing one DOF point.

    ``w1`` (m1+m2, d1) and ``w2`` (m1+m2, d2) hold each message's unit
    transmit vectors as columns of the full transmit space, transmitter 1's
    rows over transmitter 2's, and are 0 off the message's active rows
    (``_plan``).  Schemes compare and hash by identity.
    """

    config: AntennaConfig
    scenario: CognitionScenario
    d1: int
    d2: int
    w1: np.ndarray
    w2: np.ndarray


class _Trials(NamedTuple):
    """Trials that share (m1+m2, n1, n2, d1, d2), in trial order: trial t runs
    on ``channels[t]`` the blocks ``w1[t]`` (m1+m2, d1) and ``w2[t]`` (m1+m2,
    d2), laid out as in ZfScheme and built by the plan ``plans[t]``
    (``_plan``)."""

    d1: int
    d2: int
    plans: list
    channels: list
    w1: np.ndarray
    w2: np.ndarray


def _stacked(schemes: list[ZfScheme], channels: list[ChannelRealization]) -> _Trials:
    """Schemes that share (m1+m2, n1, n2, d1, d2), each on its channel, as one
    batch; each channel must match its scheme's configuration."""
    if any(ch.config != x.config for x, ch in zip(schemes, channels)):
        raise ValueError("channel does not match the scheme's configuration")
    return _Trials(schemes[0].d1, schemes[0].d2,
                   [_plan(x.config, x.scenario, x.d1, x.d2) for x in schemes], channels,
                   np.array([x.w1 for x in schemes]), np.array([x.w2 for x in schemes]))


@dataclass(frozen=True)
class SchemeDiagnostics:
    """The ranks of the pass rule at both receivers (``_receivers``):
    ``signal_dim_rx*`` is the rank of the signal projected off the residual
    interference (generic value d_i), ``interference_dim_rx*`` that of the
    residual interference (generic value u_i), and message i is decodable
    when both ranks reach their generic values."""

    signal_dim_rx1: int
    interference_dim_rx1: int
    signal_dim_rx2: int
    interference_dim_rx2: int
    decodable_w1: bool
    decodable_w2: bool

    @property
    def all_decodable(self) -> bool:
        return self.decodable_w1 and self.decodable_w2


class _Message(NamedTuple):
    """One message's part of a cell's plan (``_plan``)."""

    streams: int  # d
    rows: int  # its active rows: W1's a prefix, W2's a suffix of the m1+m2
    link: str  # its cross link, from the active rows to the other receiver
    nulled: int  # k: its first k streams lie in the cross link's kernel
    residual: int  # u: the rank it leaves at the other receiver
    power: int  # each of its streams gets rho / power
    cancelled: bool  # the other receiver knows it and subtracts it


def _plan(config: AntennaConfig, scenario: CognitionScenario, d1: int, d2: int):
    """A cell's integer plan (module docstring), W1's ``_Message`` and W2's.

    W1 is active on the first m1 rows against ``h41``, or on all m1 + m2
    against ``rx2`` when transmitter 2 is cognitive; W2 on the last m2 against
    ``h32``, or on all against ``rx1``.  A node splits its power budget
    equally over the streams it carries, and a stream carried by both takes
    the smaller share, so no node exceeds its budget."""
    m1, m2, _, _ = config.counts
    t1, t2, r1, r2 = scenario.t1, scenario.t2, scenario.r1, scenario.r2
    fit1, fit2 = _nullable(config, scenario)
    k1, k2 = (0 if r2 else min(d1, fit1)), (0 if r1 else min(d2, fit2))
    node1, node2 = d1 + t1 * d2, t2 * d1 + d2
    return (_Message(d1, m1 + t2 * m2, "rx2" if t2 else "h41", k1, 0 if r2 else d1 - k1,
                     max(node1, t2 * node2, 1), r2),
            _Message(d2, t1 * m1 + m2, "rx1" if t1 else "h32", k2, 0 if r1 else d2 - k2,
                     max(node2, t1 * node1, 1), r1))


def _norm(vec: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D real vector, to the bit: numpy takes
    sqrt(vec . vec) too, and both square roots are correctly rounded."""
    return math.sqrt(float(vec.dot(vec)))


def _norms(rows: np.ndarray) -> np.ndarray:
    """``_norm`` of each row of a C-contiguous (N, n) array, to the bit: the
    stacked (1, n) @ (n, 1) matmul runs one BLAS ddot per row."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


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


def _schemes(cells) -> dict[tuple[int, int], _Trials]:
    """The schemes of cells (config, scenario, point, channels, seed) whose
    configs share (m1+m2, n1, n2), one batch per point: trial t of a cell
    runs on channels[t] with vector seed seed + t.

    A message's first k streams (``_plan``) are the first k rows of the null
    basis of its cross link, computed only when k > 0: one ``_null_rows`` SVD
    per (config, cross link) over the channels that null against it, across
    the cells, into a table local to this call.  It draws the rest on its
    active rows, W1's first, from Philox under the key (seed mod 2**64, tag
    of (d1, d2)) (``_generators``): one standard_normal call per trial that
    draws gives the numbers of one call per vector (``_isotropic`` redraws
    when a vector, hence each of its squares, is 0).  Each trial is placed
    once per message, in the group of its (point, message, active rows, k),
    and a group is written with two fancy assignments: its stacked basis rows,
    and its drawn vectors, read from their flat offsets and normalised with
    one ``_norms`` call.
    """
    (dim, _, _), = {(c.m1 + c.m2, c.n1, c.n2) for c, *_ in cells}  # one family, or this fails
    plans, by_link = {}, {}
    for config, scenario, point, channels, seed in cells:
        plan = _plan(config, scenario, *point)
        for x in plan:
            if x.nulled:
                by_link.setdefault((config, x.link), {}).update(dict.fromkeys(channels))
        plans.setdefault(point, []).append((plan, channels, seed))
    kernels = {}  # (link, channel): its null basis, one batched SVD per (config, link)
    for (_, link), linked in by_link.items():
        kernels.update(zip([(link, ch) for ch in linked], _null_rows(_links(list(linked), link))))
    batches, groups, draws, entropy, end = {}, {}, [], [], 0
    for point, runs in plans.items():
        size = sum(len(channels) for _, channels, _ in runs)
        batches[point] = _Trials(*point, [plan for plan, channels, _ in runs for _ in channels],
                                 [ch for _, channels, _ in runs for ch in channels],
                                 np.zeros((size, dim, point[0])), np.zeros((size, dim, point[1])))
        item = 0
        for plan, channels, seed in runs:
            n, sizes = len(channels), [x.rows for x in plan for _ in range(x.streams - x.nulled)]
            offset, stride = end, sum(sizes)  # a trial's draws: W1's, then W2's
            for m, (streams, a, link, k, *_) in enumerate(plan):
                if streams:
                    items, bases, firsts = groups.setdefault((point, m, a, k), ([], [], []))
                    items.extend(range(item, item + n))
                    if k:
                        bases.extend(kernels[link, ch][:k] for ch in channels)
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
    """Reject a point unless both coordinates are integers, by
    ``channel._is_integer``, and the pair is achievable."""
    if not (_is_integer(d1) and _is_integer(d2) and _achievable(config, scenario, d1, d2)):
        raise AchievabilityError(
            f"point ({d1},{d2}) is not in the achievable integer set for "
            f"config {config}, scenario {scenario}"
        )


def build_scheme(config: AntennaConfig, scenario: CognitionScenario, d1: int, d2: int,
                 channel: ChannelRealization, seed: int) -> ZfScheme:
    """The zero-forcing scheme for an achievable point, deterministic given all
    arguments: ``_schemes`` for one trial.  Rejects points outside the
    achievable integer set and channels that do not match the configuration."""
    if channel.config != config:
        raise ValueError(
            f"channel realization has shapes for {channel.config}, expected {config}"
        )
    _require_achievable(config, scenario, d1, d2)
    seed = _integer("seed", seed)
    trials = _schemes([(config, scenario, (d1, d2), [channel], seed)])[d1, d2]
    return ZfScheme(config, scenario, d1, d2, trials.w1[0], trials.w2[0])


class _Receiver(NamedTuple):
    """One receiver's side of the pass rule over a batch (``_receivers``)."""

    interference: list  # per trial, the residual interference rank, and
    unnulled: list  # its generic value u_i
    signal: list  # per trial, the projected signal rank, and
    streams: int  # its generic value d_i
    passes: list  # per trial, whether both ranks reach their generic values
    spectrum: np.ndarray  # (B, min(n, d_i)) the projected singular values
    crossing: np.ndarray | None  # (B, n, d_other) H W_other, or None where no trial needs it


def _receivers(trials: _Trials):
    """The pass rule at both receivers of a batch, each trial on its channel
    (receiver 1 decodes W1 against W2, receiver 2 W2 against W1): the
    residual interference H W_other has the rank u_i its plan leaves there
    (``_plan``), and H W_i projected off the first u_i left singular vectors
    of H W_other has rank d_i, relative to the channel norm (why this
    suffices: module docstring).  Returns both ``_Receiver``s and, for each
    failing trial only, the criteria it fails."""
    runs, receivers, failed = _runs(trials.channels), [], {}
    for link, signal, interference, other in (("rx1", trials.w1, trials.w2, 1),
                                              ("rx2", trials.w2, trials.w1, 0)):
        rx, scale = _gather(runs, link), _gather(runs, ("norm", link))
        cognitive = [plan[other].cancelled for plan in trials.plans]
        unnulled = [plan[other].residual for plan in trials.plans]
        received = rx @ signal
        interference_rank, kept, crossing = [0] * len(rx), received, None
        if interference.shape[2] and not all(cognitive):
            crossing = rx @ interference
            u, singular, _ = np.linalg.svd(crossing, full_matrices=False)
            ranks = _ranks(singular, scale).tolist()
            interference_rank = [0 if c else r for c, r in zip(cognitive, ranks)]
            if signal.shape[2] and any(unnulled):
                # Groups of equal u_i, one scheme's shapes (see module docstring).
                kept = received.copy()
                for dim in set(unnulled) - {0}:
                    sel = [k == dim for k in unnulled]
                    sel = slice(None) if all(sel) else np.array(sel)
                    span = u[sel][:, :, :dim]
                    kept[sel] = received[sel] - span @ (np.swapaxes(span, 1, 2) @ received[sel])
        spectrum = np.linalg.svd(kept, compute_uv=False)
        signal_rank, streams = _ranks(spectrum, scale).tolist(), signal.shape[2]
        passes = [i == k and s == streams
                  for i, k, s in zip(interference_rank, unnulled, signal_rank)]
        receivers.append(_Receiver(interference_rank, unnulled, signal_rank, streams, passes,
                                   spectrum, crossing))
        for t in [t for t, ok in enumerate(passes) if not ok]:
            shortfalls = ((f"{link} interference rank", interference_rank[t] != unnulled[t]),
                          (f"{link} signal rank", signal_rank[t] != streams))
            failed[t] = failed.get(t, ()) + tuple(name for name, short in shortfalls if short)
    return (*receivers, failed)


def verify_scheme(scheme: ZfScheme, channel: ChannelRealization) -> SchemeDiagnostics:
    """The pass rule's ranks of a scheme on a concrete channel, at each
    receiver (``SchemeDiagnostics``)."""
    rx1, rx2, _ = _receivers(_stacked([scheme], [channel]))
    return SchemeDiagnostics(rx1.signal[0], rx1.interference[0], rx2.signal[0],
                             rx2.interference[0], rx1.passes[0], rx2.passes[0])


def _null_residuals(trials: _Trials, rx1: _Receiver, rx2: _Receiver) -> np.ndarray:
    """Per trial, the worst relative leakage ||H w|| / ||H|| of its nulled
    streams at the other receiver (0 when none is nulled): the largest norm of
    a message's first k columns of H W_other there (``_Receiver.crossing``),
    each one contiguous ddot, over the norm of its plan's cross link.  W is 0
    off its active rows, so rx2 w = h41 w[:m1]."""
    worst = np.zeros(len(trials.plans))
    for m, rx in ((0, rx2), (1, rx1)):  # W1 arrives at receiver 2, W2 at receiver 1
        sel = [t for t, plan in enumerate(trials.plans) if plan[m].nulled]
        if sel:
            plans = [trials.plans[t][m] for t in sel]
            columns = np.ascontiguousarray(np.swapaxes(rx.crossing[sel], 1, 2))
            leaks = _norms(columns.reshape(-1, columns.shape[2])).reshape(len(sel), -1)
            leaks[np.arange(leaks.shape[1]) >= np.array([x.nulled for x in plans])[:, None]] = 0
            runs, links = _runs([trials.channels[t] for t in sel]), {x.link for x in plans}
            norms = {link: _gather(runs, ("norm", link)).tolist() for link in links}
            scale = [norms[x.link][i] for i, x in enumerate(plans)]
            worst[sel] = np.maximum(worst[sel], leaks.max(axis=1) / scale)
    return worst


def null_residual(scheme: ZfScheme, channel: ChannelRealization) -> float:
    """Worst relative leakage ||H w|| / ||H|| of the nulled streams at the opposite receiver."""
    trials = _stacked([scheme], [channel])
    return float(_null_residuals(trials, *_receivers(trials)[:2])[0])


def _transmit_ranks(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Rank of each item's d1 + d2 transmit vectors, at unit scale."""
    stacked = np.concatenate([w1, w2], axis=2)
    return _ranks(np.linalg.svd(stacked, compute_uv=False), np.ones(len(stacked)))


def transmit_rank(scheme: ZfScheme) -> int:
    """Rank of all d1 + d2 transmit vectors in R^(m1+m2)."""
    return int(_transmit_ranks(scheme.w1[None], scheme.w2[None])[0])


def _verdicts(trials: _Trials) -> list[tuple[tuple[str, ...], float]]:
    """Per trial of a batch, the criteria of the pass rule it fails (empty when
    it passes): those of ``_receivers``, then "null residual" (above
    RANK_RTOL) and "transmit rank" (below d1 + d2); and its null residual."""
    rx1, rx2, failed = _receivers(trials)
    streams, verdicts = trials.d1 + trials.d2, []
    for t, (residual, rank) in enumerate(zip(_null_residuals(trials, rx1, rx2).tolist(),
                                             _transmit_ranks(trials.w1, trials.w2).tolist())):
        verdicts.append((failed.get(t, ()) + ("null residual",) * (not residual <= RANK_RTOL)
                         + ("transmit rank",) * (rank != streams), residual))
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


def _sweep_cells(cells: list[tuple]) -> list[SweepCell]:
    """Sweep cells (config, scenario, point, channels, seed) of one family
    (m1+m2, n1, n2): trial t of a cell runs on channels[t] with vector seed
    seed + t, and the trials of a point are built and judged as one batch."""
    batches = _schemes(cells)
    verdicts = {point: iter(_verdicts(trials)) for point, trials in batches.items()}
    tallies = []
    for config, scenario, point, channels, _ in cells:
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
    scenarios' trials, are sampled as one batch.  Configurations are judged
    one family of equal (m1+m2, n1, n2) at a time, so what is held at once
    scales with a family, not with the sweep.  Failures are recorded in the
    report, not raised.
    """
    max_antennas, trials = _integer("max_antennas", max_antennas), _integer("trials", trials)
    seed = _integer("seed", seed)
    if max_antennas < 1:
        raise ValueError("max_antennas must be >= 1")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if trials == 0:
        return SweepReport(cells=())
    scenarios = CognitionScenario.all_scenarios()
    configs = [AntennaConfig(*c) for c in itertools.product(range(1, max_antennas + 1), repeat=4)]
    family = lambda config: (config.m1 + config.m2, config.n1, config.n2)
    tallies: dict[AntennaConfig, list[SweepCell]] = {config: [] for config in configs}
    for _, members in itertools.groupby(sorted(configs, key=family), family):
        cells = []
        for config in members:
            cell_seeds = [_derived_seed(seed, config.counts, s) for s in range(len(scenarios))]
            sampled = sample_channels(config, [s + t for s in cell_seeds for t in range(trials)])
            for s_index, (scenario, cell_seed) in enumerate(zip(scenarios, cell_seeds)):
                channels = sampled[s_index * trials : (s_index + 1) * trials]
                for point in sorted(inner_points(config, scenario).points):
                    cells.append((config, scenario, point, channels, cell_seed))
        for cell in _sweep_cells(cells):
            tallies[cell.config].append(cell)
    return SweepReport(cells=tuple(itertools.chain.from_iterable(tallies.values())))


def _derived_seed(seed: int, counts: tuple[int, int, int, int], s_index: int) -> int:
    mixed = seed & (2**32 - 1)
    for part in (*counts, s_index):
        mixed = (mixed * 1_000_003 + part + 1) % (2**63 - 1)
    return mixed
