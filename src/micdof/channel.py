"""Antenna configurations, cognition scenarios, and random channel realizations.

The two-user interference channel has four nodes: node 1 and node 2 are the
transmitters (``m1``/``m2`` antennas), node 3 and node 4 the receivers
(``n1``/``n2`` antennas).  ``h{ji}`` is the link matrix from node ``i`` to
node ``j``; the cooperation variant additionally carries the full 4x4 set of
directed links (every node is full duplex, self-links included).

Sampling is batched: ``sample_channels`` draws one realization per seed,
checks every link of the batch for full rank with one SVD per link shape, and
keeps the largest singular values of h31..h42 as their spectral norms.  Each
seed's matrices depend on that seed alone, so a batch gives the bytes its
seeds give one at a time; ``sample_channel`` is the batch of one.  Null bases
of many realizations likewise come from one batched SVD
(``ChannelRealization.null_bases``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

# The one rank rule: a singular value counts toward the rank when it exceeds
# RANK_RTOL times a reference scale, and a scale <= 0 gives rank 0.  The scale
# is the matrix's own largest singular value (`is_full_rank`, `null_space`,
# `matrix_rank` by default, and the batched checks in `sample_channels` and
# `ChannelRealization.null_bases`), the spectral norm of the channel the matrix
# was received through (the receiver model in `zf`), so that leakage of
# ~1e-16 counts as rank zero rather than full rank, or 1.0 for the stacked
# transmit vectors, which have unit norm (`zf._transmit_ranks`).  Each way the
# rule is scale-invariant and far above double noise.
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

    def node_antennas(self, node: int) -> int:
        """Antennas at node 1..4 (transmitters first, then receivers)."""
        if node not in (1, 2, 3, 4):
            raise ValueError(f"node must be in 1..4, got {node}")
        return self.counts[node - 1]

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

    Geometry derived from the links (the stacked receiver matrices ``rx1`` and
    ``rx2``, spectral norms, null-space bases) is computed on first use and
    cached on the realization, so every DOF point, verdict and rate evaluated
    on the same channel shares it; ``sample_channels`` fills the spectral
    norms of h31..h42 from its rank check.  Cached arrays are read-only, like
    the links themselves: writing to them raises ValueError.  Realizations
    compare and hash by identity.
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
        return AntennaConfig(
            m1=self.h31.shape[1],
            m2=self.h32.shape[1],
            n1=self.h31.shape[0],
            n2=self.h41.shape[0],
        )

    @functools.cached_property
    def rx1(self) -> np.ndarray:
        """[h31 h32]: the channel from both transmitters to receiver 1."""
        return _freeze(np.hstack([self.h31, self.h32]))

    @functools.cached_property
    def rx2(self) -> np.ndarray:
        """[h41 h42]: the channel from both transmitters to receiver 2."""
        return _freeze(np.hstack([self.h41, self.h42]))

    def spectral_norm(self, link: str) -> float:
        """Largest singular value of a link (``h31``..``h42``, ``rx1``, ``rx2``)."""
        key = ("norm", link)
        if key not in self._memo:
            ChannelRealization.spectral_norms([self], link)
        return self._memo[key]

    @staticmethod
    def spectral_norms(channels: list["ChannelRealization"], link: str) -> np.ndarray:
        """``spectral_norm(link)`` of each channel; the uncached ones come from
        one batched SVD (its first singular value is ``np.linalg.norm(x, 2)``)."""
        key = ("norm", link)
        missing = [ch for ch in channels if key not in ch._memo]
        if missing:
            stack = np.array([getattr(ch, link) for ch in missing])
            for ch, top in zip(missing, np.linalg.svd(stack, compute_uv=False)[:, 0].tolist()):
                ch._memo[key] = top
        return np.array([ch._memo[key] for ch in channels])

    def null_basis(self, link: str) -> tuple[np.ndarray, ...]:
        """Read-only ``null_space`` basis of a link (``h31``..``h42``, ``rx1``, ``rx2``)."""
        return ChannelRealization.null_bases([self], link)[0]

    @staticmethod
    def null_bases(
        channels: list["ChannelRealization"], link: str
    ) -> list[tuple[np.ndarray, ...]]:
        """``null_basis(link)`` of each channel; the uncached ones come from
        one batched full SVD, each cut at its own rank as ``null_space`` cuts."""
        key = ("null", link)
        missing = [ch for ch in channels if key not in ch._memo]
        if missing:
            stack = np.array([getattr(ch, link) for ch in missing])
            _, singular, vt = np.linalg.svd(stack, full_matrices=True)
            for ch, rank, basis in zip(missing, _ranks(singular, singular[:, 0]).tolist(), vt):
                ch._memo[key] = tuple(_freeze(v) for v in basis[rank:])
        return [ch._memo[key] for ch in channels]

    def matches(self, config: AntennaConfig) -> bool:
        m1, m2, n1, n2 = config.counts
        return (
            self.h31.shape == (n1, m1)
            and self.h32.shape == (n1, m2)
            and self.h41.shape == (n2, m1)
            and self.h42.shape == (n2, m2)
        )


def swap_users(
    config: AntennaConfig, scenario: CognitionScenario
) -> tuple[AntennaConfig, CognitionScenario]:
    """Relabel user 1 as user 2 and vice versa.  Involution."""
    swapped_config = AntennaConfig(m1=config.m2, m2=config.m1, n1=config.n2, n2=config.n1)
    swapped_scenario = CognitionScenario(
        t1=scenario.t2, t2=scenario.t1, r1=scenario.r2, r2=scenario.r1
    )
    return swapped_config, swapped_scenario


def _rank(singular: np.ndarray, scale: float | None = None) -> int:
    """Count of singular values above RANK_RTOL * scale (see RANK_RTOL).

    ``singular`` is sorted descending, as numpy returns it; the scale
    defaults to its largest entry, and an empty spectrum has rank 0.
    """
    if scale is None:
        scale = singular[0] if singular.size else 0.0
    if scale <= 0.0:
        return 0
    return int(np.count_nonzero(singular > RANK_RTOL * scale))


def _ranks(singular: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """`_rank` over a leading batch axis, for scales (B,) that are positive or
    each item's own largest singular value (a zero one gives rank 0 then)."""
    return (singular > RANK_RTOL * scale[:, None]).sum(axis=1)


def _singular_values(matrix: np.ndarray) -> np.ndarray:
    if matrix.size == 0:
        return np.zeros(0)
    return np.linalg.svd(matrix, compute_uv=False)


def matrix_rank(matrix: np.ndarray, scale: float | None = None) -> int:
    """Rank under the RANK_RTOL rule, relative to ``scale`` when given."""
    return _rank(_singular_values(matrix), scale)


def is_full_rank(matrix: np.ndarray) -> bool:
    """True when every singular value counts toward the rank."""
    return matrix.size > 0 and matrix_rank(matrix) == min(matrix.shape)


def null_space(matrix: np.ndarray) -> list[np.ndarray]:
    """Orthonormal basis of the kernel, as a list of vectors.

    Basis size equals columns minus rank; every vector v satisfies
    ||matrix @ v|| <= RANK_RTOL * ||matrix|| * ||v||.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.shape[1] < 1:
        raise ValueError("matrix must have at least one column")
    _, singular, vt = np.linalg.svd(matrix, full_matrices=True)
    return list(vt[_rank(singular):])


def _freeze(matrix: np.ndarray) -> np.ndarray:
    matrix.setflags(write=False)
    return matrix


def sample_channel(
    config: AntennaConfig, seed: int, extended: bool = False
) -> ChannelRealization:
    """One seed's channel: ``sample_channels`` for a batch of one."""
    return sample_channels(config, [seed], extended)[0]


def sample_channels(
    config: AntennaConfig, seeds, extended: bool = False
) -> list[ChannelRealization]:
    """Sample i.i.d. standard-normal channel matrices, one realization per seed.

    Entries are real, zero mean, unit variance.  Continuous sampling makes
    every matrix full rank almost surely; a seed whose draw fails the rank
    rule at tolerance is redrawn with a derived seed, up to 8 attempts before
    giving up.  Each seed's draw depends on that seed alone: attempt a draws
    its links in pair order from one generator seeded by (seed, a).  The
    rank checks of a batch run as one SVD per link shape, and their largest
    singular values are cached as the spectral norms of h31..h42.
    """
    layout = _layout(config.counts, extended)
    seeds = list(seeds)
    if not seeds:
        return []
    accepted: list = [None] * len(seeds)
    pending = list(range(len(seeds)))
    for attempt in range(_RESAMPLE_ATTEMPTS):
        # One standard_normal call draws the numbers that one call per link would.
        draws = np.array([
            np.random.default_rng([seeds[k] & (2**64 - 1), attempt]).standard_normal(layout.size)
            for k in pending
        ])
        # Per seed, the singular values of all its links, one group at a time.
        spectra = np.concatenate([
            np.linalg.svd(draws[:, columns].reshape(-1, *shape), compute_uv=False)
            .reshape(len(pending), -1)
            for shape, columns in layout.groups
        ], axis=1)
        # A link is full rank when its smallest singular value counts toward
        # the rank, i.e. _ranks(s, s[:, 0]) == min(n, m); a zero scale fails.
        top, low = spectra[:, layout.top], spectra[:, layout.low]
        full_rank = (low > RANK_RTOL * top).all(axis=1).tolist()
        norms = spectra[:, layout.norms].tolist()
        # Read-only views, one per (seed, link), of the frozen draws.
        _freeze(draws)
        links = zip(*(list(draws[:, span].reshape(-1, *shape)) for shape, span in layout.spans))
        for k, ok, seed_links, seed_norms in zip(pending, full_rank, links, norms):
            if ok:
                accepted[k] = (seed_links, seed_norms)
        pending = [k for k, ok in zip(pending, full_rank) if not ok]
        if not pending:
            return [layout.realization(seed, *accepted[k]) for k, seed in enumerate(seeds)]
    raise DegenerateChannelError(
        f"could not sample full-rank channels for {config} after "
        f"{_RESAMPLE_ATTEMPTS} attempts; the generator looks degenerate"
    )


@dataclass(frozen=True)
class _Layout:
    """Where a configuration's links sit in one seed's flat draw.

    ``spans`` gives each link's shape and slice, in pair order.  Each entry
    of ``groups`` is a link shape and the columns of the draw holding its
    links (a slice when they are adjacent), so ``draws[:, columns]``
    reshapes to a stack of that shape.  A seed's spectra, concatenated in
    group order, hold each link's largest singular value at ``top`` and its
    smallest at ``low``; ``norms`` are the ``top`` entries of h31..h42, and
    ``base`` picks h31..h42 from the links in pair order.
    """

    pairs: tuple[tuple[int, int], ...]
    spans: tuple[tuple[tuple[int, int], slice], ...]
    groups: tuple[tuple[tuple[int, int], slice | np.ndarray], ...]
    top: np.ndarray
    low: np.ndarray
    norms: list[int]
    base: tuple[int, ...]
    size: int
    extended: bool

    def realization(self, seed: int, links, norms: list[float]) -> ChannelRealization:
        """A seed's accepted links (pair order), with the spectral norms of
        h31..h42 in the cache."""
        channel = ChannelRealization(
            *(links[p] for p in self.base),
            seed=seed,
            extended_links=dict(zip(self.pairs, links)) if self.extended else None,
        )
        channel._memo.update(zip(_NORM_KEYS, norms))
        return channel


_NORM_KEYS = tuple(("norm", f"h{i}{j}") for i, j in _LINK_PAIRS)


@functools.lru_cache(maxsize=None)
def _layout(counts: tuple[int, int, int, int], extended: bool) -> _Layout:
    """The flat-draw layout of the links sampled for ``counts``."""
    pairs = _ALL_PAIRS if extended else _LINK_PAIRS
    spans, start = [], 0
    for i, j in pairs:
        shape = (counts[i - 1], counts[j - 1])
        spans.append((shape, slice(start, start + shape[0] * shape[1])))
        start += shape[0] * shape[1]
    by_shape: dict[tuple[int, int], list[int]] = {}
    for p, (shape, _) in enumerate(spans):
        by_shape.setdefault(shape, []).append(p)
    groups, top, low, offset = [], {}, {}, 0
    for shape, links in by_shape.items():
        if links == list(range(links[0], links[-1] + 1)):
            columns = slice(spans[links[0]][1].start, spans[links[-1]][1].stop)
        else:
            columns = np.array([np.arange(spans[p][1].start, spans[p][1].stop) for p in links])
        groups.append((shape, columns))
        for p in links:
            top[p], low[p] = offset, offset + min(shape) - 1
            offset += min(shape)
    base = tuple(pairs.index(pair) for pair in _LINK_PAIRS)
    return _Layout(
        pairs, tuple(spans), tuple(groups), np.array(list(top.values())),
        np.array(list(low.values())), [top[p] for p in base], base, start, extended,
    )
