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
(``_Stack``), and each realization its stack and row, so the links and norms
of many realizations are one fancy index per stack (``_gather``).  Every rank
in micdof is counted by one rule, ``_ranks``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import InitVar, dataclass, field

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

    # (m1, m2, n1, n2), stored once; not part of equality, hash or repr.
    counts: tuple[int, int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("m1", "m2", "n1", "n2"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"antenna count {name} must be an integer, got {value!r}")
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


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One sampled set of real channel matrices for a given configuration.

    ``h31``..``h42`` are the four interference-channel links.  When the
    realization was sampled with ``extended=True``, ``extended_links`` maps
    every ordered node pair (i, j) to the matrix of the link from node j to
    node i, sixteen in total; otherwise it is None.

    ``row`` is (stack, index) in the ``_Stack`` of a sampled batch; one built
    otherwise (or by ``dataclasses.replace``) is a stack of one.  Spectral
    norms (``spectral_norms``, over ``h31``..``h42`` and the receiver links
    ``rx1`` = [h31 h32] and ``rx2`` = [h41 h42]) are read from the stacks,
    and null bases (``null_bases``, read-only) are computed for a batch on
    first use and cached per channel, so every point, verdict and rate on the
    channel shares them.  Realizations compare and hash by identity.
    """

    h31: np.ndarray
    h32: np.ndarray
    h41: np.ndarray
    h42: np.ndarray
    seed: int
    extended_links: dict[tuple[int, int], np.ndarray] | None = field(default=None)
    row: InitVar[tuple | None] = None
    _row: tuple = field(init=False, repr=False)
    _bases: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self, row) -> None:
        if row is None:  # built outside sampling: a stack of one
            row = (_Stack({name: getattr(self, name)[None] for name in _LINK_NAMES}), 0)
        object.__setattr__(self, "_row", row)

    @property
    def config(self) -> AntennaConfig:
        (n1, m1), m2, n2 = self.h31.shape, self.h32.shape[1], self.h41.shape[0]
        return AntennaConfig(m1=m1, m2=m2, n1=n1, n2=n2)

    @staticmethod
    def spectral_norms(channels: list["ChannelRealization"], link: str) -> np.ndarray:
        """Largest singular value of a link of each channel (B,), from their stacks."""
        return _gather(_runs(channels), ("norm", link))

    @staticmethod
    def null_bases(channels: list["ChannelRealization"], link: str) -> list[np.ndarray]:
        """Read-only null basis of a link of each channel, one basis vector per
        row: (nullity, columns); the uncached ones come from one batched full
        SVD (``_null_rows``)."""
        missing = [ch for ch in channels if link not in ch._bases]
        if missing:
            for ch, basis in zip(missing, _null_rows(_links(missing, link))):
                ch._bases[link] = _freeze(basis)
        return [ch._bases[link] for ch in channels]

    def matches(self, config: AntennaConfig) -> bool:
        m1, m2, n1, n2 = config.counts
        shapes = (self.h31.shape, self.h32.shape, self.h41.shape, self.h42.shape)
        return shapes == ((n1, m1), (n1, m2), (n2, m1), (n2, m2))


_RX_PARTS = {"rx1": ("h31", "h32"), "rx2": ("h41", "h42")}
_LINK_NAMES = tuple(f"h{i}{j}" for i, j in _LINK_PAIRS)


class _Stack(dict):
    """A batch's links h31..h42 (C, n, m) and norms (C,) at ("norm", link); a
    receiver's ``rx1``/``rx2`` (its two h-links, concatenated) and a missing
    norm (one batched SVD's first singular value, ``np.linalg.norm(x, 2)``)
    are computed for the whole stack on first use.  It holds no channel."""

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


def _freeze(matrix: np.ndarray) -> np.ndarray:
    matrix.setflags(write=False)
    return matrix


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
    values are kept as the spectral norms of h31..h42, in one ``_Stack`` per
    attempt with (C, n, m) views of its draw.
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
        views, shapes, norms, full = {}, {}, {}, []
        for pair, shape, span in spans:
            views[pair] = draws[:, span].reshape(-1, *shape)
            shapes.setdefault(shape, []).append(pair)
        for (n, m), pairs in shapes.items():
            # One SVD over the shape's (links, C, n, m) stack; LAPACK still
            # factors each matrix on its own, so each link keeps its values.
            singular = np.linalg.svd(np.stack([views[p] for p in pairs]), compute_uv=False)
            norms.update(zip(pairs, singular[..., 0]))
            flat = singular.reshape(-1, min(n, m))
            full.append(_ranks(flat, flat[:, 0]) == min(n, m))
        full_rank = np.concatenate(full).reshape(-1, len(pending)).all(axis=0).tolist()
        stack = _Stack({name: views[p] for p, name in zip(_LINK_PAIRS, _LINK_NAMES)})
        stack.update({("norm", name): norms[p] for p, name in zip(_LINK_PAIRS, _LINK_NAMES)})
        for row, (k, ok) in enumerate(zip(pending, full_rank)):
            if ok:
                accepted[k] = (stack, row, views)
        pending = [k for k, ok in zip(pending, full_rank) if not ok]
        if not pending:
            return [ChannelRealization(
                *(stack[name][row] for name in _LINK_NAMES), seed=seed, row=(stack, row),
                extended_links={p: links[row] for p, links in views.items()} if extended else None,
            ) for seed, (stack, row, views) in zip(seeds, accepted)]
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
