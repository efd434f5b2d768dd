import dataclasses
import hashlib
import itertools
import json
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from micdof import channel
from micdof.channel import (
    RANK_RTOL,
    AntennaConfig,
    ChannelRealization,
    CognitionScenario,
    DegenerateChannelError,
    _gather,
    _generators,
    _links,
    _null_rows,
    _ranks,
    _runs,
    sample_channel,
    sample_channels,
)


def test_validate_config_accepts_valid():
    assert AntennaConfig(2, 2, 2, 2).counts == (2, 2, 2, 2)
    data = {"m1": 1, "m2": 5, "n1": 5, "n2": 1}
    assert AntennaConfig.from_json_dict(data) == AntennaConfig(1, 5, 5, 1)


def test_counts_are_stored_once_outside_equality_hash_and_repr():
    config = AntennaConfig(1, 2, 3, 4)
    assert config.counts == (1, 2, 3, 4)
    assert config.counts is config.counts
    assert repr(config) == "AntennaConfig(m1=1, m2=2, n1=3, n2=4)"
    assert config == AntennaConfig(1, 2, 3, 4) and hash(config) == hash(AntennaConfig(1, 2, 3, 4))
    assert dataclasses.replace(config, n2=5).counts == (1, 2, 3, 5)
    assert pickle.loads(pickle.dumps(config)).counts == (1, 2, 3, 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.counts = (4, 3, 2, 1)


@pytest.mark.parametrize("bad,field", [
    ((0, 2, 2, 2), "m1"),
    ((2, 0, 2, 2), "m2"),
    ((2, 2, -1, 2), "n1"),
    ((2, 2, 2, 0), "n2"),
])
def test_validate_config_names_offending_field(bad, field):
    with pytest.raises(ValueError, match=field):
        AntennaConfig(*bad)
    with pytest.raises(ValueError, match=field):
        AntennaConfig.from_json_dict(dict(zip(("m1", "m2", "n1", "n2"), bad)))


@pytest.mark.parametrize("count", [1.5, True, 2.0, np.float64(2.0), np.bool_(True), "2"])
def test_a_count_that_is_not_an_int_is_rejected(count):
    with pytest.raises(ValueError) as refused:
        AntennaConfig(count, 1, 1, 1)
    assert str(refused.value) == f"antenna count m1 must be an integer, got {count!r}"


def test_numpy_integer_counts_are_stored_as_plain_ints():
    # numpy's integers pass the integer rule, as they do for a point's
    # coordinates, and the config keeps plain ints, so its JSON is the same.
    config = AntennaConfig(*np.array([2, 3, 1, 4]))
    assert all(type(count) is int for count in (config.m1, config.m2, config.n1, config.n2))
    assert all(type(count) is int for count in config.counts)
    assert config == AntennaConfig(2, 3, 1, 4) and hash(config) == hash(AntennaConfig(2, 3, 1, 4))
    assert json.dumps(config.to_json_dict()) == '{"m1": 2, "m2": 3, "n1": 1, "n2": 4}'
    with pytest.raises(ValueError) as refused:
        AntennaConfig(np.int64(0), 1, 1, 1)
    assert str(refused.value) == "antenna count m1 must be >= 1, got 0"


@pytest.mark.parametrize("seed", [1.5, 2.0, True, np.float64(2.0)],
                         ids=["fraction", "float", "bool", "numpy float"])
def test_a_seed_that_is_not_an_int_is_rejected(seed):
    config, refused = AntennaConfig(2, 2, 2, 2), f"seed must be an integer, got {seed!r}"
    with pytest.raises(ValueError) as error:
        sample_channel(config, seed=seed)
    assert str(error.value) == refused
    with pytest.raises(ValueError) as error:
        sample_channels(config, [0, seed])
    assert str(error.value) == refused


def test_a_numpy_integer_seed_draws_the_plain_int_channel():
    config = AntennaConfig(2, 3, 2, 2)
    for seed in (np.int64(3), np.int64(-5), np.uint64(2**64 - 1)):
        ch, plain = sample_channel(config, seed=seed), sample_channel(config, seed=int(seed))
        assert type(ch.seed) is int and ch.seed == plain.seed
        assert all(getattr(ch, link).tobytes() == getattr(plain, link).tobytes()
                   for link in ("h31", "h32", "h41", "h42"))


def test_sixteen_distinct_scenarios_roundtrip():
    all_s = CognitionScenario.all_scenarios()
    assert len(set(all_s)) == 16
    for s in all_s:
        assert CognitionScenario.from_bits(s.bits) == s
        assert len(s.bits) == 4


def test_scenario_rejects_bad_bits():
    with pytest.raises(ValueError):
        CognitionScenario.from_bits([0, 1, 2, 0])
    with pytest.raises(ValueError):
        CognitionScenario.from_bits([0, 1, 0])


def test_sampling_is_deterministic():
    config = AntennaConfig(2, 2, 2, 2)
    a = sample_channel(config, seed=7)
    b = sample_channel(config, seed=7)
    for name in ("h31", "h32", "h41", "h42"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert not np.array_equal(a.h31, sample_channel(config, seed=8).h31)


def test_sampled_shapes_match_config():
    ch = sample_channel(AntennaConfig(1, 3, 3, 1), seed=0)
    assert ch.h41.shape == (1, 1)
    assert ch.h32.shape == (3, 3)
    assert ch.h31.shape == (3, 1)
    assert ch.h42.shape == (1, 3)


def test_monte_carlo_full_rank():
    config = AntennaConfig(3, 3, 3, 3)
    for seed in range(1000):
        ch = sample_channel(config, seed=seed)
        for m in (ch.h31, ch.h32, ch.h41, ch.h42):
            s = np.linalg.svd(m, compute_uv=False)
            assert s[-1] > 1e-9 * s[0]


def test_extended_links_cover_all_sixteen_pairs():
    config = AntennaConfig(2, 3, 1, 2)
    ch = sample_channel(config, seed=5, extended=True)
    assert ch.extended_links is not None
    assert set(ch.extended_links) == {(i, j) for i in range(1, 5) for j in range(1, 5)}
    ant = {1: 2, 2: 3, 3: 1, 4: 2}
    for (i, j), m in ch.extended_links.items():
        assert m.shape == (ant[i], ant[j])
    # the base links alias the extended set
    assert np.array_equal(ch.h31, ch.extended_links[(3, 1)])
    assert np.array_equal(ch.h42, ch.extended_links[(4, 2)])


def test_extended_sampling_deterministic():
    config = AntennaConfig(2, 2, 2, 2)
    a = sample_channel(config, seed=11, extended=True)
    b = sample_channel(config, seed=11, extended=True)
    for pair in a.extended_links:
        assert np.array_equal(a.extended_links[pair], b.extended_links[pair])


def test_realizations_are_read_only():
    ch = sample_channel(AntennaConfig(2, 2, 2, 2), seed=1)
    with pytest.raises(ValueError):
        ch.h31[0, 0] = 0.0
    # A hand-built channel copies its links into its stack, read-only, so its
    # memoised norm stays the norm of what it reads.
    a = np.eye(2)
    hand = ChannelRealization(a, np.eye(2), np.eye(2), np.eye(2), seed=0)
    assert _gather(_runs([hand]), ("norm", "h31")).tolist() == [1.0]
    with pytest.raises(ValueError):
        hand.h31[:] = 10 * np.eye(2)
    a[:] = 10 * np.eye(2)
    assert hand.h31.tolist() == np.eye(2).tolist()
    assert _gather(_runs([hand]), ("norm", "h31")).tolist() == [np.linalg.norm(hand.h31, 2)]
    extended = sample_channel(AntennaConfig(2, 1, 1, 2), seed=1, extended=True).extended_links
    hand = ChannelRealization(*(extended[p] for p in _PAIR_NAMES), seed=1, extended_links=extended)
    for link in hand.extended_links.values():
        with pytest.raises(ValueError):
            link[0, 0] = 0.0


def test_each_link_is_stored_once():
    # A channel is one row of its stack: h31..h42 are the (3,1)..(4,2) entries
    # of its extended links, and the stack holds one entry per link.
    config = AntennaConfig(2, 3, 1, 2)
    sampled = sample_channel(config, seed=5, extended=True)
    links = sampled.extended_links
    hand = ChannelRealization(*(links[p] for p in _PAIR_NAMES), seed=5, extended_links=links)
    plain = sample_channel(config, seed=5)
    for ch, count in ((sampled, 16), (hand, 16), (plain, 4),
                      (ChannelRealization(plain.h31, plain.h32, plain.h41, plain.h42, 5), 4)):
        assert (ch.extended_links is None) == (count == 4)
        for pair, name in _PAIR_NAMES.items() if count == 16 else ():
            assert np.shares_memory(getattr(ch, name), ch.extended_links[pair])
        _links([ch], "rx1")  # a receiver link, computed on first use, is no link entry
        stack = ch._row[0]
        assert len([key for key in stack if isinstance(key, str) and key[0] == "h"]) == count


def test_realizations_compare_and_hash_by_identity():
    config = AntennaConfig(2, 2, 2, 2)
    a = sample_channel(config, seed=1)
    b = sample_channel(config, seed=1)
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_a_hand_built_channel_must_agree_on_one_config():
    # h31, h32 and h41 give the counts (config); h32's rows, h41's columns and
    # h42 must fit them, or the channel is refused where it is built.
    eye, ones = np.eye(2), np.ones
    expected = r"h32, h41 and h42 must be \(2, 2\), \(2, 2\) and \(2, 2\) matrices for \(2,2,2,2\)"
    for links in ((eye, eye, eye, ones((3, 3))), (eye, ones((3, 2)), eye, eye),
                  (eye, eye, ones((2, 3)), eye), (eye, eye, eye, ones((2, 1)))):
        with pytest.raises(ValueError, match=expected):
            ChannelRealization(*links, seed=0)
    sampled = sample_channel(AntennaConfig(2, 2, 2, 2), seed=0)
    with pytest.raises(TypeError):  # a channel is its stack's row: no route around the check
        dataclasses.replace(sampled, h42=ones((3, 3)))
    odd = ChannelRealization(ones((3, 2)), ones((3, 1)), ones((1, 2)), ones((1, 1)), seed=0)
    assert odd.config == AntennaConfig(2, 1, 3, 1) and odd.h42.shape == (1, 1)


def test_derived_geometry_is_cached_and_read_only():
    ch = sample_channel(AntennaConfig(3, 2, 2, 2), seed=1)
    norm = _gather(_runs([ch]), ("norm", "rx2"))[0]
    assert norm == float(np.linalg.norm(_links([ch], "rx2")[0], 2))
    assert ch._row[0][("norm", "rx2")][ch._row[1]] == norm  # kept in the channel's stack
    with pytest.raises(ValueError):
        ch.h41[0][0] = 1.0


def _scalar_rank(matrix, scale=None):
    # Reference: the rank rule on one matrix, with a 2-D SVD.  The scale
    # defaults to the largest singular value; an empty spectrum or a zero
    # scale gives rank 0.
    s = np.linalg.svd(matrix, compute_uv=False)
    if scale is None:
        scale = s[0] if s.size else 0.0
    return int(np.count_nonzero(s > RANK_RTOL * scale)) if scale > 0 else 0


def _scalar_null_space(matrix):
    # Reference: the rows of one full 2-D SVD's V^T past the scalar rank.
    vt = np.linalg.svd(matrix, full_matrices=True)[2]
    return list(vt[_scalar_rank(matrix):])


def test_ranks_detects_degeneracy():
    for matrix, scale, rank in (
        (np.eye(3), 1.0, 3),
        (np.ones((2, 2)), 2.0, 1),
        (np.zeros((2, 2)), 0.0, 0),
    ):
        singular = np.linalg.svd(matrix[None], compute_uv=False)
        assert _ranks(singular, np.array([scale])).tolist() == [rank]
        assert _scalar_rank(matrix) == rank


def test_null_space_edge_cases():
    # Rank 0 (no rows, or all zeros) keeps every direction.
    for matrix in (np.zeros((0, 3)), np.zeros((2, 3))):
        basis = _null_rows(matrix[None])[0]
        assert len(basis) == 3
        assert np.allclose(basis @ basis.T, np.eye(3), atol=1e-12)
        assert [v.tobytes() for v in basis] == [v.tobytes() for v in _scalar_null_space(matrix)]


class _ConstantGenerator:
    """Stands in for a generator: every draw is one constant value."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, size):
        return np.full(size, self.value)


def _rig_generators(monkeypatch, rigged):
    # Sampling draws through channel._generators; rigged(row) gives the
    # stand-in generator for an entropy row, or None to keep the real one.
    generators = channel._generators

    def patched(entropy):
        for row, rng in zip(entropy, generators(entropy)):
            yield rigged(list(row)) or rng

    monkeypatch.setattr(channel, "_generators", patched)


def test_degenerate_generator_raises_after_retries(monkeypatch):
    # All-zero draws have scale 0, hence rank 0: every attempt is rejected.
    attempts = []

    def zero_rng(row):
        attempts.append(tuple(row))
        return _ConstantGenerator(0.0)

    _rig_generators(monkeypatch, zero_rng)
    with pytest.raises(DegenerateChannelError, match="degenerate"):
        sample_channel(AntennaConfig(2, 2, 2, 2), seed=5)
    assert attempts == [(5, attempt) for attempt in range(8)]


def _draw(config, seed, attempt, pairs):
    rng = _fresh_philox((seed & (2**64 - 1), attempt))
    return {(i, j): rng.standard_normal((config.counts[i - 1], config.counts[j - 1]))
            for i, j in pairs}


def _reference_links(config, seed, extended=False):
    # Reference: the scalar loop, one generator and one rank SVD per link.
    pairs = (list(itertools.product((1, 2, 3, 4), repeat=2)) if extended
             else [(3, 1), (3, 2), (4, 1), (4, 2)])
    for attempt in range(8):
        links = _draw(config, seed, attempt, pairs)
        if all(_scalar_rank(m) == min(m.shape) for m in links.values()):
            return links
    raise DegenerateChannelError("degenerate")


def _link_bytes(ch):
    links = ch.extended_links or dict(zip([(3, 1), (3, 2), (4, 1), (4, 2)],
                                          (ch.h31, ch.h32, ch.h41, ch.h42)))
    return {pair: m.tobytes() for pair, m in links.items()}


def test_a_rejected_seed_is_redrawn_alone(monkeypatch):
    # An all-ones draw makes every 2x2 link rank 1.  Only that seed moves to
    # attempt 1; the others keep their attempt-0 draws.
    config = AntennaConfig(2, 3, 2, 2)
    seeds = [10, 11, 12, 13, 14]
    _rig_generators(monkeypatch, lambda row: _ConstantGenerator(1.0) if row == [12, 0] else None)
    batch = [_link_bytes(ch) for ch in sample_channels(config, seeds)]
    single = [_link_bytes(sample_channel(config, seed)) for seed in seeds]
    monkeypatch.undo()
    assert batch == single
    for seed, links in zip(seeds, batch):
        drawn = _draw(config, seed, 1 if seed == 12 else 0, [(3, 1), (3, 2), (4, 1), (4, 2)])
        assert links == {pair: m.tobytes() for pair, m in drawn.items()}


def test_sample_channels_match_the_scalar_loop():
    seeds = [0, 1, 7, 41, 999, 2**31, 2**63 + 5, 2**64 + 3, -1, -12345]
    configs = list(itertools.product(range(1, 5), repeat=4))[::7]
    assert len(configs) >= 20
    for counts in configs:
        config = AntennaConfig(*counts)
        for extended in (False, True):
            batch = sample_channels(config, seeds, extended)
            for seed, ch in zip(seeds, batch):
                expected = {pair: m.tobytes()
                            for pair, m in _reference_links(config, seed, extended).items()}
                assert _link_bytes(ch) == expected and ch.seed == seed
                assert (ch.extended_links is not None) == extended
    assert sample_channels(AntennaConfig(2, 2, 2, 2), []) == []


_MASK = 2**64 - 1
_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, -1 & _MASK, -12345 & _MASK]  # -1 -> 2**64 - 1
_EDGE_POINTS = [(0, 0), (0, 1), (3, 1), (0, 2**32 - 1), (2**32 - 2, 0), (2**32 - 2, 2**32 - 1)]


def _philox_key(row):
    # Reference key scheme: (seed, attempt) for a channel and
    # (seed, (d1 + 1) * 2**32 + d2) for scheme vectors.
    seed, *tag = row
    return [seed, tag[0] if len(tag) == 1 else (tag[0] + 1) * 2**32 + tag[1]]


def _fresh_philox(row):
    # Reference generator: a new Philox under the row's key.  The key goes in
    # as a uint64 array: numpy casts a list such as [2**64 - 1, 0] wrongly.
    return np.random.Generator(np.random.Philox(key=np.array(_philox_key(row), dtype=np.uint64)))


def _state(bits):
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in {**bits.state, **bits.state["state"]}.items() if k != "state"}


def _assert_generators_equal_fresh_philox(rows):
    # Each yielded generator starts where a fresh Philox under the row's key
    # starts, however much of the previous row's buffer was drawn.
    drawn = 0
    for row, rng in zip(rows, _generators(rows)):
        expected = _fresh_philox(row)
        assert _state(rng.bit_generator) == _state(expected.bit_generator)
        assert rng.standard_normal(7).tobytes() == expected.standard_normal(7).tobytes()
        assert rng.integers(0, 9, size=drawn % 3 + 1, dtype=np.uint32).tolist() == \
            expected.integers(0, 9, size=drawn % 3 + 1, dtype=np.uint32).tolist()
        drawn += 1
    assert drawn == len(rows)


def test_generators_equal_a_fresh_philox_at_the_edges():
    pairs = [(seed, attempt) for seed in _EDGE_SEEDS for attempt in (0, 1, 7, 2**32 - 1)]
    triples = [(seed, *point) for seed in _EDGE_SEEDS for point in _EDGE_POINTS]
    for rows in (pairs, triples, triples[::-1], pairs + triples, pairs[:1]):
        _assert_generators_equal_fresh_philox(rows)
    assert list(_generators([])) == []


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.integers(0, _MASK), st.integers(0, 2**32 - 1)),
    st.tuples(st.integers(0, _MASK), st.integers(0, 2**32 - 2), st.integers(0, 2**32 - 1)),
), min_size=1, max_size=6))
def test_generators_equal_a_fresh_philox(rows):
    _assert_generators_equal_fresh_philox(rows)


def test_generator_keys_are_distinct_across_rows_and_domains():
    # No two rows, channel or vector, share a key, and a row outside the key
    # scheme is refused rather than folded onto another row's key.
    channel_rows = [(seed, attempt) for seed in _EDGE_SEEDS for attempt in (*range(8), 2**32 - 1)]
    points = dict.fromkeys([*_EDGE_POINTS, *itertools.product(range(6), repeat=2)])
    vector_rows = [(seed, *point) for seed in _EDGE_SEEDS for point in points]
    rows = channel_rows + vector_rows
    keys = [tuple(rng.bit_generator.state["state"]["key"].tolist()) for rng in _generators(rows)]
    assert keys == [tuple(_philox_key(row)) for row in rows]
    assert len(set(keys)) == len(set(rows)) == len(rows)
    assert not set(keys[:len(channel_rows)]) & set(keys[len(channel_rows):])
    for row in ((1, 2**32), (1, -1), (1, 2**32 - 1, 0), (1, 0, 2**32), (1, -1, 0), (1, 0, -1)):
        with pytest.raises(ValueError, match="no Philox key"):
            list(_generators([row]))
    for row in ((1,), (1, 2, 3, 4)):  # no tag, or one the scheme does not name
        with pytest.raises((IndexError, ValueError)):
            list(_generators([row]))


def test_seeded_draws_are_a_known_answer():
    # Pinned bytes: a numpy release that changes Philox or its normal sampler
    # changes every seeded channel and vector, and fails here first.
    ch = sample_channel(AntennaConfig(2, 2, 2, 2), seed=0)
    links = b"".join(m.tobytes() for m in (ch.h31, ch.h32, ch.h41, ch.h42))
    vectors = next(_generators([(0, 1, 1)])).standard_normal(4).tobytes()
    assert hashlib.sha256(links).hexdigest() == (
        "7dd56ba1f017a3adf95b570932044129b2354200053b217f89791c790ec710bc")
    assert hashlib.sha256(vectors).hexdigest() == (
        "4023e173f6bab41460ea5bb2c188c04f144a954fa811a17fa506083e022d451f")


def test_sampling_caches_the_link_spectral_norms(monkeypatch):
    # The rank check's largest singular value is the link's spectral norm.
    channels = sample_channels(AntennaConfig(3, 1, 2, 4), range(20), extended=True)
    channels += sample_channels(AntennaConfig(2, 2, 2, 2), range(5))
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    links = ("h31", "h32", "h41", "h42")
    norms = {link: _gather(_runs(channels), ("norm", link)).tolist() for link in links}
    assert _gather(_runs([]), ("norm", "rx1")).shape == (0,)
    monkeypatch.undo()
    assert calls == []
    for link in links:
        assert norms[link] == [float(np.linalg.norm(getattr(ch, link), 2)) for ch in channels]


def test_null_bases_equal_null_space():
    # Batched bases, the batch of one and the scalar reference agree to the bit.
    for counts in ((3, 2, 2, 3), (4, 1, 2, 1), (1, 3, 3, 1), (2, 2, 2, 2)):
        channels = sample_channels(AntennaConfig(*counts), range(12))
        for link in ("h31", "h32", "h41", "h42", "rx1", "rx2"):
            bases = _null_rows(_links(channels, link))
            for ch, basis in zip(channels, bases):
                matrix = _links([ch], link)[0]
                expected = [v.tobytes() for v in _scalar_null_space(matrix)]
                assert [v.tobytes() for v in basis] == expected
                assert [v.tobytes() for v in _null_rows(matrix[None])[0]] == expected


_PAIR_NAMES = {(3, 1): "h31", (3, 2): "h32", (4, 1): "h41", (4, 2): "h42"}


@settings(max_examples=60, deadline=None)
@given(
    counts=st.tuples(*[st.integers(min_value=2, max_value=4)] * 4),
    pair=st.sampled_from(list(_PAIR_NAMES)),
    log_ratio=st.floats(min_value=np.log(RANK_RTOL / 4), max_value=np.log(4 * RANK_RTOL)),
    basis_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(counts=(2, 3, 4, 2), pair=(3, 2), log_ratio=np.log(RANK_RTOL / 4), basis_seed=0)
@example(counts=(2, 3, 4, 2), pair=(3, 2), log_ratio=np.log(4 * RANK_RTOL), basis_seed=0)
def test_sampling_decides_like_the_scalar_rule_at_the_edge(counts, pair, log_ratio, basis_seed):
    # A link U diag(s) V^T with s_min / s_max near RANK_RTOL replaces its span
    # of attempt 0's draw; the other links stay generic.  Attempt 0 is kept
    # exactly when the scalar rule accepts every attempt-0 link.
    config, seed = AntennaConfig(*counts), 21
    shape = (config.counts[pair[0] - 1], config.counts[pair[1] - 1])
    rng = np.random.default_rng(basis_seed)
    u = np.linalg.qr(rng.standard_normal((shape[0], shape[0])))[0]
    v = np.linalg.qr(rng.standard_normal((shape[1], shape[1])))[0]
    k = min(shape)
    s = 3.0 * np.exp(np.linspace(0.0, log_ratio, k))
    edge = u[:, :k] @ np.diag(s) @ v[:, :k].T
    pairs = list(_PAIR_NAMES)
    attempt0 = _draw(config, seed, 0, pairs)
    attempt0[pair] = edge

    class Rigged:
        def standard_normal(self, size):
            flat = np.concatenate([m.ravel() for m in attempt0.values()])
            assert flat.size == size
            return flat

    with pytest.MonkeyPatch.context() as mp:
        _rig_generators(mp, lambda row: Rigged() if row == [seed, 0] else None)
        ch = sample_channel(config, seed)
    kept = all(_scalar_rank(m) == min(m.shape) for m in attempt0.values())
    expected = attempt0 if kept else _draw(config, seed, 1, pairs)
    assert _link_bytes(ch) == {p: m.tobytes() for p, m in expected.items()}
    name, (stack, row) = _PAIR_NAMES[pair], ch._row  # sampling keeps the norm in the stack
    assert stack.get(("norm", name))[row] == float(np.linalg.norm(getattr(ch, name), 2))
