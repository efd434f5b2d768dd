"""Antenna configurations, cognition scenarios, and random channel realizations.

The two-user interference channel has four nodes: node 1 and node 2 are the
transmitters (``m1``/``m2`` antennas), node 3 and node 4 the receivers
(``n1``/``n2`` antennas).  ``h{ji}`` is the link matrix from node ``i`` to
node ``j``; the cooperation variant additionally carries the full 4x4 set of
directed links (every node is full duplex, self-links included).

Sampling is batched: ``sample_channels`` draws one realization per seed and
checks each link of the batch for full rank with one batched SVD.  Each
seed's matrices depend on that seed alone, so ``sample_channel`` is the batch
of one.  The generator states of a batch, equal to
``np.random.default_rng``'s, are computed at once (``_generators``), here and
for the vectors in ``zf``.  Null bases and spectral norms of many
realizations come from one batched SVD each, on link stacks (``_links``).
Every rank in micdof is counted by one rule, ``_ranks``.
"""

from __future__ import annotations

import functools
import itertools
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


@dataclass(frozen=True)
class AntennaConfig:
    """Antenna counts (m1, m2, n1, n2); every count must be at least 1."""

    m1: int
    m2: int
    n1: int
    n2: int

    def __post_init__(self) -> None:
        for name in ("m1", "m2", "n1", "n2"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"antenna count {name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"antenna count {name} must be >= 1, got {value}")

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (self.m1, self.m2, self.n1, self.n2)

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


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One sampled set of real channel matrices for a given configuration.

    ``h31``..``h42`` are the four interference-channel links.  When the
    realization was sampled with ``extended=True``, ``extended_links`` maps
    every ordered node pair (i, j) to the matrix of the link from node j to
    node i, sixteen in total; otherwise it is None.

    A link's spectral norm and null basis (``spectral_norms``, ``null_bases``,
    over ``h31``..``h42`` and the receiver links ``rx1`` = [h31 h32] and
    ``rx2`` = [h41 h42]) are computed for a batch of channels on first use and
    cached, so every point, verdict and rate on the channel shares them;
    ``sample_channels`` fills what its rank check already knows.  Cached
    bases are read-only, like the links.  Realizations compare and hash by
    identity.
    """

    h31: np.ndarray
    h32: np.ndarray
    h41: np.ndarray
    h42: np.ndarray
    seed: int
    extended_links: dict[tuple[int, int], np.ndarray] | None = field(default=None)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def config(self) -> AntennaConfig:
        (n1, m1), m2, n2 = self.h31.shape, self.h32.shape[1], self.h41.shape[0]
        return AntennaConfig(m1=m1, m2=m2, n1=n1, n2=n2)

    @staticmethod
    def spectral_norms(channels: list["ChannelRealization"], link: str) -> np.ndarray:
        """Largest singular value of a link of each channel; the uncached ones
        come from one batched SVD (its first singular value is
        ``np.linalg.norm(x, 2)``)."""
        key = ("norm", link)
        missing = [ch for ch in channels if key not in ch._memo]
        if missing:
            stack = _links(missing, link)
            for ch, top in zip(missing, np.linalg.svd(stack, compute_uv=False)[:, 0].tolist()):
                ch._memo[key] = top
        return np.array([ch._memo[key] for ch in channels])

    @staticmethod
    def null_bases(channels: list["ChannelRealization"], link: str) -> list[np.ndarray]:
        """Read-only null basis of a link of each channel, one basis vector per
        row: (nullity, columns); the uncached ones come from one batched full
        SVD (``_null_rows``)."""
        key = ("null", link)
        missing = [ch for ch in channels if key not in ch._memo]
        if missing:
            bases = _null_rows(_links(missing, link))
            for ch, basis in zip(missing, bases):
                ch._memo[key] = _freeze(basis)
        return [ch._memo[key] for ch in channels]

    def matches(self, config: AntennaConfig) -> bool:
        m1, m2, n1, n2 = config.counts
        shapes = (self.h31.shape, self.h32.shape, self.h41.shape, self.h42.shape)
        return shapes == ((n1, m1), (n1, m2), (n2, m1), (n2, m2))


_RX_PARTS = {"rx1": ("h31", "h32"), "rx2": ("h41", "h42")}


def _links(channels: list[ChannelRealization], link: str) -> np.ndarray:
    """One link of each channel, stacked (B, n, m); a receiver's ``rx1``/``rx2``
    stack is its two h-link stacks, concatenated."""
    if link in _RX_PARTS:
        return np.concatenate([_links(channels, part) for part in _RX_PARTS[link]], axis=2)
    return np.array([getattr(ch, link) for ch in channels])


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


def _freeze(matrix: np.ndarray) -> np.ndarray:
    matrix.setflags(write=False)
    return matrix


# SeedSequence (NEP 19) hashing, as in numpy's bit_generator.pyx.  Hash call
# k of a SeedSequence xors with INIT * MULT**k and then multiplies by
# INIT * MULT**(k + 1) (mod 2**32), whatever the data.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@functools.lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..calls, as a (calls + 1, 1) column."""
    powers = [init * pow(mult, k, 2**32) % 2**32 for k in range(calls + 1)]
    return _freeze(np.array(powers, dtype=np.uint32)[:, None])


# Pool word s is hashed into the other three by calls 4 + 3s..; with a 0 in
# row s of these (4, 1) columns, each step of that mix runs on the whole pool.
_SPREAD = [[np.insert(_hash_consts(_INIT_A, _MULT_A, 16)[4 + 3 * s + o:7 + 3 * s + o], s, 0, 0)
            for o in (0, 1)] for s in range(4)]


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    x = (values ^ xor) * mult
    x ^= x >> 16
    return x


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = _MIX_L * x - _MIX_R * y
    x ^= x >> 16
    return x


def _pool_states(words: np.ndarray) -> np.ndarray:
    """SeedSequence's ``generate_state(4, uint64)`` for each column of uint32
    entropy words (n, B), every column at once.  Returns (4, B) uint64."""
    n = len(words)
    a = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * max(n - 4, 0))
    pool = np.zeros((4, words.shape[1]), dtype=np.uint32)
    pool[:n] = words[:4]
    pool = _hashmix(pool, a[:4], a[1:5])
    for src, (xor, mult) in enumerate(_SPREAD):
        mixed = _mix(pool, _hashmix(pool[src], xor, mult))
        mixed[src] = pool[src]
        pool = mixed
    for src in range(4, n):  # words past the pool mix into every pool word
        pool = _mix(pool, _hashmix(words[src], a[4 * src:4 * src + 4], a[4 * src + 1:4 * src + 5]))
    b = _hash_consts(_INIT_B, _MULT_B, 8)
    out = _hashmix(np.concatenate((pool, pool)), b[:8], b[1:])
    return out[0::2].astype(np.uint64) | (out[1::2].astype(np.uint64) << 32)


class _Words:
    """A seed sequence holding one row's PCG64 words, registered as numpy's
    ISeedSequence on first use (importing micdof imports no numpy.random)."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("_Words holds the four uint64 words of a PCG64 seed only")
        return self.words


def _generators(entropy):
    """Per row of ``entropy`` (B, k), integers in [0, 2**64), a generator in the
    state that ``np.random.default_rng(list(row))`` starts in, bit for bit:
    SeedSequence's states are computed for the batch, in groups of one word
    layout (a value below 2**32 is one uint32 word, a larger one two), and
    numpy's PCG64 seeding takes each row's four words (``_Words``).
    """
    if not len(entropy):
        return
    rows = np.asarray(entropy, dtype=np.uint64)
    lo, hi = (rows & 0xFFFFFFFF).astype(np.uint32), (rows >> 32).astype(np.uint32)
    layouts = ((hi != 0) << np.arange(rows.shape[1])).sum(axis=1)
    states = np.empty((len(rows), 4), dtype=np.uint64)
    with np.errstate(over="ignore"):  # the uint32 hash products wrap by design
        for layout in set(layouts.tolist()):
            sel = np.flatnonzero(layouts == layout)
            words = [w for j in range(rows.shape[1])
                     for w in ((lo[sel, j], hi[sel, j]) if layout >> j & 1 else (lo[sel, j],))]
            states[sel] = _pool_states(np.array(words)).T
    np.random.bit_generator.ISeedSequence.register(_Words)
    for words in states:
        yield np.random.Generator(np.random.PCG64(_Words(words)))


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
    its links in pair order from one generator in the state that
    ``np.random.default_rng([seed mod 2**64, a])`` starts in, and the states
    of an attempt's pending seeds are computed as one batch (``_generators``).
    Each link of a batch is checked with one SVD, whose largest singular
    values are cached as the spectral norms of h31..h42.
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
        draws = _freeze(np.array([rng.standard_normal(size) for rng in _generators(entropy)]))
        full_rank = np.ones(len(pending), dtype=bool)
        links, base, norms = [], [], []
        for pair, (n, m), span in spans:
            stack = draws[:, span].reshape(-1, n, m)
            singular = np.linalg.svd(stack, compute_uv=False)
            full_rank &= _ranks(singular, singular[:, 0]) == min(n, m)
            links.append(list(stack))
            if pair in _LINK_PAIRS:
                base.append(links[-1])
                norms.append(singular[:, 0].tolist())
        full_rank = full_rank.tolist()
        for k, ok, *seed_links in zip(pending, full_rank, zip(*base), zip(*links), zip(*norms)):
            if ok:
                accepted[k] = seed_links
        pending = [k for k, ok in zip(pending, full_rank) if not ok]
        if not pending:
            return [_realization(seed, extended, *accepted[k])
                    for k, seed in enumerate(seeds)]
    raise DegenerateChannelError(
        f"could not sample full-rank channels for {config} after "
        f"{_RESAMPLE_ATTEMPTS} attempts; the generator looks degenerate"
    )


_NORM_KEYS = tuple(("norm", f"h{i}{j}") for i, j in _LINK_PAIRS)


def _realization(seed: int, extended: bool, base, links, norms) -> ChannelRealization:
    """A seed's accepted links (h31..h42, then every sampled link in pair
    order), with the norms of h31..h42 cached."""
    channel = ChannelRealization(
        *base, seed=seed, extended_links=dict(zip(_ALL_PAIRS, links)) if extended else None
    )
    channel._memo.update(zip(_NORM_KEYS, norms))
    return channel


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
