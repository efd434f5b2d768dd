"""Antenna configurations, cognition scenarios, and random channel realizations.

The two-user interference channel has four nodes: node 1 and node 2 are the
transmitters (``m1``/``m2`` antennas), node 3 and node 4 the receivers
(``n1``/``n2`` antennas).  ``h{ji}`` is the link matrix from node ``i`` to
node ``j``; the cooperation variant additionally carries the full 4x4 set of
directed links (every node is full duplex, self-links included).

Sampling is batched: ``sample_channels`` draws one realization per seed and
checks its links for full rank with one batched SVD per link shape.  Each
seed's matrices depend on that seed alone, so ``sample_channel`` is the batch
of one.  Every seeded draw, here and for the vectors in ``zf``, comes from
numpy's Philox under the key (seed mod 2**64, domain tag) (``_generators``),
so seeded outputs depend on numpy's Philox and its normal sampler.  A sampled
batch keeps its links as views of its draw, with their spectral norms
(``_Stack``); a realization is one row of its stack, each link stored once,
so the links and norms of many realizations are one fancy index per stack
(``_gather``).  Every rank in micdof is counted by one rule, ``_ranks``.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np

# The one rank rule (`_ranks`): a singular value counts toward the rank when
# it exceeds RANK_RTOL times a reference scale, and a scale <= 0 gives rank 0.
# The scale is the matrix's own largest singular value (sampling's full-rank
# check, null bases), the spectral norm of the channel the matrix was
# received through (`zf`'s receiver model, so leakage of ~1e-16 counts as
# rank zero), or 1.0 for the unit transmit vectors (`zf._transmit_ranks`).
RANK_RTOL = 1e-9

_RESAMPLE_ATTEMPTS = 8

# (receiver, transmitter) node pairs of h31, h32, h41, h42.
_LINK_PAIRS = ((3, 1), (3, 2), (4, 1), (4, 2))
_ALL_PAIRS = tuple(itertools.product((1, 2, 3, 4), repeat=2))


class DegenerateChannelError(RuntimeError):
    """Raised when repeated sampling cannot produce full-rank matrices."""


def _is_integer(value) -> bool:
    """The one integer rule: a ``numbers.Integral`` (numpy's integers too)
    that is not a bool.  A plain int is checked first."""
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def _integer(name: str, value) -> int:
    """``value`` as a plain int, or ValueError naming ``name``."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class AntennaConfig:
    """Antenna counts (m1, m2, n1, n2); every count must be at least 1."""

    m1: int
    m2: int
    n1: int
    n2: int

    # (m1, m2, n1, n2), stored once; not part of equality, hash or repr.
    counts: tuple[int, int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("m1", "m2", "n1", "n2"):
            value = getattr(self, name)
            if type(value) is not int:
                value = _integer(f"antenna count {name}", value)
                object.__setattr__(self, name, value)
            if value < 1:
                raise ValueError(f"antenna count {name} must be >= 1, got {value}")
        object.__setattr__(self, "counts", (self.m1, self.m2, self.n1, self.n2))

    def to_json_dict(self) -> dict[str, int]:
        return {"m1": self.m1, "m2": self.m2, "n1": self.n1, "n2": self.n2}

    @classmethod
    def from_json_dict(cls, data: dict) -> "AntennaConfig":
        return cls(m1=data["m1"], m2=data["m2"], n1=data["n1"], n2=data["n2"])

    def __str__(self) -> str:
        return f"({self.m1},{self.m2},{self.n1},{self.n2})"


@dataclass(frozen=True)
class CognitionScenario:
    """Which nodes are cognitive: transmitters t1/t2, receivers r1/r2.

    A cognitive node knows the other user's message a priori.  The canonical
    serialization is the indicator 4-tuple [t1, t2, r1, r2].
    """

    t1: bool = False
    t2: bool = False
    r1: bool = False
    r2: bool = False

    @property
    def bits(self) -> tuple[int, int, int, int]:
        return (int(self.t1), int(self.t2), int(self.r1), int(self.r2))

    @classmethod
    def from_bits(cls, bits) -> "CognitionScenario":
        values = list(bits)
        if len(values) != 4 or any(b not in (0, 1, True, False) for b in values):
            raise ValueError(f"scenario must be four 0/1 indicators, got {bits!r}")
        return cls(*(bool(b) for b in values))

    @classmethod
    def all_scenarios(cls) -> list["CognitionScenario"]:
        """All 16 scenarios, in lexicographic order of [t1, t2, r1, r2]."""
        return [cls(*combo) for combo in itertools.product((False, True), repeat=4)]

    def __str__(self) -> str:
        return "[%d,%d,%d,%d]" % self.bits


@dataclass(frozen=True, eq=False, init=False)
class ChannelRealization:
    """One set of real channel matrices: one row of a ``_Stack``.

    The realization holds its seed, its config and ``_row`` = (stack, row);
    ``h31``..``h42`` are read from the stack and are read-only.  When it was
    sampled or built with ``extended_links``, ``extended_links`` maps every
    ordered node pair (i, j) to the link from node j to node i, sixteen in
    total, whose (3,1)..(4,2) entries are h31..h42 themselves; otherwise it
    is None.  A sampled batch shares one stack per attempt and its config.
    Built by hand, the channel copies its links into a stack of one: h31..h42
    must agree on one config, and ``extended_links``, if given, must cover
    the sixteen pairs with its shapes and equal h31..h42.  A realization
    holds what sampling draws and nothing that ``zf`` decides.  Realizations
    compare and hash by identity.
    """

    seed: int
    config: AntennaConfig
    _row: tuple = field(repr=False)

    def __init__(self, h31, h32, h41, h42, seed: int, extended_links=None) -> None:
        (n1, m1), m2, n2 = np.shape(h31), np.shape(h32)[1], np.shape(h41)[0]
        config, links = AntennaConfig(m1=m1, m2=m2, n1=n1, n2=n2), (h31, h32, h41, h42)
        if [np.shape(h) for h in links] != [(n1, m1), (n1, m2), (n2, m1), (n2, m2)]:
            raise ValueError(f"h31..h42 disagree: h32, h41 and h42 must be {(n1, m2)}, "
                             f"{(n2, m1)} and {(n2, m2)} matrices for {config}")
        links, stack = dict(zip(_LINK_PAIRS, links)), _Stack()
        for pair, shape, _ in _spans(config.counts, extended_links is not None)[0]:
            name = "h%d%d" % pair
            link = links[pair] if extended_links is None else extended_links.get(pair)
            if np.shape(link) != shape:
                raise ValueError(f"extended link {pair} must be a {shape} matrix")
            if pair in links and not np.array_equal(link, links[pair]):
                raise ValueError(f"extended link {pair} differs from {name}")
            stack[name] = np.array([link])
            stack[name].setflags(write=False)
        self.__dict__.update(seed=seed, config=config, _row=(stack, 0))

    h31, h32, h41, h42 = (property(lambda self, name=name: self._row[0][name][self._row[1]])
                          for name in ("h31", "h32", "h41", "h42"))

    @property
    def extended_links(self) -> dict[tuple[int, int], np.ndarray] | None:
        stack, row = self._row
        return {p: stack["h%d%d" % p][row] for p in _ALL_PAIRS} if "h11" in stack else None


_RX_PARTS = {"rx1": ("h31", "h32"), "rx2": ("h41", "h42")}


class _Stack(dict):
    """A batch's links "hij" (C, n, m) and norms (C,) at ("norm", link); a
    receiver's ``rx1``/``rx2`` (its two h-links, concatenated) and a missing
    norm (one batched SVD's first singular value, ``np.linalg.norm(x, 2)``)
    are computed for the whole stack on first use.  It holds no channel.  The
    memo pays: in one zf_sweep round each entry it computes is read about 13
    times, and the cooperation probe's stacks never compute theirs."""

    def __missing__(self, key):
        self[key] = (np.linalg.svd(self[key[1]], compute_uv=False)[:, 0] if isinstance(key, tuple)
                     else np.concatenate([self[part] for part in _RX_PARTS[key]], axis=2))
        return self[key]


def _runs(channels: list[ChannelRealization]) -> list[tuple[_Stack, np.ndarray]]:
    """Consecutive channels that share a stack, as (stack, their rows in it)."""
    runs = itertools.groupby((ch._row for ch in channels), lambda row: id(row[0]))
    return [(rows[0][0], np.array([index for _, index in rows]))
            for rows in (list(run) for _, run in runs)]


def _gather(runs, key) -> np.ndarray:
    """A stack entry (a link or ("norm", link)) at each run's rows: one fancy index per run."""
    parts = [stack[key][rows] for stack, rows in runs] or [np.empty(0)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _links(channels: list[ChannelRealization], link: str) -> np.ndarray:
    """One link of each channel, stacked (B, n, m)."""
    return _gather(_runs(channels), link)


def _ranks(singular: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The rank rule (see RANK_RTOL) over a leading batch axis: per item of
    ``singular`` (B, k), the count of values above RANK_RTOL * scale, for
    scales (B,) that are positive or each item's own largest singular value
    (a zero one gives rank 0 then)."""
    return (singular > RANK_RTOL * scale[:, None]).sum(axis=1)


def _null_rows(stack: np.ndarray) -> list[np.ndarray]:
    """Per matrix of a stack (B, n, m), the rows of its V^T past its rank:
    one full SVD, each matrix cut at ``_ranks`` of its own largest singular
    value (0 for an empty spectrum, which has rank 0)."""
    _, singular, vt = np.linalg.svd(stack, full_matrices=True)
    ranks = _ranks(singular, singular.max(axis=1, initial=0.0)).tolist()
    return [basis[rank:] for rank, basis in zip(ranks, vt)]


def _generators(entropy):
    """Per row of ``entropy``, (seed, attempt) for a channel or (seed, d1, d2)
    for scheme vectors with seed in [0, 2**64), numpy's Philox at counter 0
    under the key (seed, tag): tag = attempt, or (d1 + 1) * 2**32 + d2, so no
    two rows share a key while attempt, d2 < 2**32 and d1 < 2**32 - 1.  It is
    one generator, reset for each row with its buffer emptied and yielded
    again, so a caller draws all it needs from one row's generator before it
    asks for the next."""
    bits = np.random.Philox(0)  # a fixed seed: no OS entropy for a key that is replaced
    rng, key = np.random.Generator(bits), [0, 0]
    # The state at counter 0 with an empty buffer, in plain ints, so a reset
    # reads no numpy arrays.
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for seed, *tag in entropy:
        high, low = (0, *tag) if len(tag) == 1 else (tag[0] + 1, *tag[1:])
        if min(tag) < 0 or max(high, low) >= 2**32:
            raise ValueError(f"entropy row {(seed, *tag)} has no Philox key")
        key[:] = seed, high << 32 | low
        bits.state = state
        yield rng


def sample_channel(config: AntennaConfig, seed: int, extended: bool = False) -> ChannelRealization:
    """One seed's channel: ``sample_channels`` for a batch of one."""
    return sample_channels(config, [seed], extended)[0]


def sample_channels(config: AntennaConfig, seeds,
                    extended: bool = False) -> list[ChannelRealization]:
    """Sample i.i.d. standard-normal channel matrices, one realization per seed.

    Entries are real, zero mean, unit variance.  Continuous sampling makes
    every matrix full rank almost surely; a seed whose draw fails the rank
    rule at tolerance is redrawn with a derived seed, up to 8 attempts before
    giving up.  Each seed's draw depends on that seed alone: attempt a draws
    its links in pair order from Philox under the key (seed mod 2**64, a)
    (``_generators``).  The links of an attempt that share a shape are
    checked with one SVD and one ``_ranks`` call, and their largest singular
    values are kept as their spectral norms, in one ``_Stack`` per attempt
    with (C, n, m) views of its draw.  The batch's channels share its config.
    """
    spans, size = _spans(config.counts, extended)
    seeds = list(seeds)
    if not seeds:
        return []
    accepted: list = [None] * len(seeds)
    pending = list(range(len(seeds)))
    for attempt in range(_RESAMPLE_ATTEMPTS):
        # One standard_normal call draws the numbers that one call per link
        # would; the links are read-only views, one per (seed, link), of it.
        entropy = [(seeds[k] & (2**64 - 1), attempt) for k in pending]
        draws = np.array([rng.standard_normal(size) for rng in _generators(entropy)])
        draws.setflags(write=False)
        stack, shapes, full = _Stack(), {}, []
        for pair, shape, span in spans:
            stack["h%d%d" % pair] = draws[:, span].reshape(-1, *shape)
            shapes.setdefault(shape, []).append("h%d%d" % pair)
        for (n, m), names in shapes.items():
            # One SVD over the shape's (links, C, n, m) stack; LAPACK still
            # factors each matrix on its own, so each link keeps its values.
            singular = np.linalg.svd(np.stack([stack[name] for name in names]), compute_uv=False)
            stack.update(zip([("norm", name) for name in names], singular[..., 0]))
            flat = singular.reshape(-1, min(n, m))
            full.append(_ranks(flat, flat[:, 0]) == min(n, m))
        full_rank = np.concatenate(full).reshape(-1, len(pending)).all(axis=0).tolist()
        for row, (k, ok) in enumerate(zip(pending, full_rank)):
            if ok:
                accepted[k] = (stack, row)
        pending = [k for k, ok in zip(pending, full_rank) if not ok]
        if not pending:  # each channel is its row, filled in with no copy and no check
            channels = [object.__new__(ChannelRealization) for _ in seeds]
            for ch, seed, row in zip(channels, seeds, accepted):
                ch.__dict__.update(seed=seed, config=config, _row=row)
            return channels
    raise DegenerateChannelError(
        f"could not sample full-rank channels for {config} after "
        f"{_RESAMPLE_ATTEMPTS} attempts; the generator looks degenerate"
    )


@functools.lru_cache(maxsize=None)
def _spans(counts: tuple[int, int, int, int], extended: bool) -> tuple[tuple, int]:
    """Each sampled link's pair, shape and slice of one seed's flat draw, in
    pair order, and the size of that draw."""
    spans, start = [], 0
    for i, j in _ALL_PAIRS if extended else _LINK_PAIRS:
        n, m = counts[i - 1], counts[j - 1]
        spans.append(((i, j), (n, m), slice(start, start + n * m)))
        start += n * m
    return tuple(spans), start
