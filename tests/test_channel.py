import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from micdof.channel import (
    AntennaConfig,
    ChannelRealization,
    CognitionScenario,
    DegenerateChannelError,
    is_full_rank,
    null_space,
    sample_channel,
    sample_channels,
    swap_users,
)

counts = st.integers(min_value=1, max_value=6)
configs = st.builds(AntennaConfig, m1=counts, m2=counts, n1=counts, n2=counts)
scenarios = st.builds(
    CognitionScenario,
    t1=st.booleans(), t2=st.booleans(), r1=st.booleans(), r2=st.booleans(),
)


def test_validate_config_accepts_valid():
    assert AntennaConfig(2, 2, 2, 2).counts == (2, 2, 2, 2)
    data = {"m1": 1, "m2": 5, "n1": 5, "n2": 1}
    assert AntennaConfig.from_json_dict(data) == AntennaConfig(1, 5, 5, 1)


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


def test_realizations_compare_and_hash_by_identity():
    config = AntennaConfig(2, 2, 2, 2)
    a = sample_channel(config, seed=1)
    b = sample_channel(config, seed=1)
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_derived_geometry_is_cached_and_read_only():
    ch = sample_channel(AntennaConfig(3, 2, 2, 2), seed=1)
    assert ch.rx1 is ch.rx1
    assert ch.spectral_norm("rx2") == float(np.linalg.norm(ch.rx2, 2))
    basis = ch.null_basis("h41")
    assert basis is ch.null_basis("h41") and len(basis) == 1
    with pytest.raises(ValueError):
        ch.rx1[0, 0] = 1.0
    with pytest.raises(ValueError):
        basis[0][0] = 1.0


def test_is_full_rank_detects_degeneracy():
    assert is_full_rank(np.eye(3))
    assert not is_full_rank(np.array([[1.0, 1.0], [1.0, 1.0]]))


class _ConstantGenerator:
    """Stands in for a generator: every draw is one constant value."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, size):
        return np.full(size, self.value)


def test_degenerate_generator_raises_after_retries(monkeypatch):
    # All-zero draws have scale 0, hence rank 0: every attempt is rejected.
    attempts = []

    def zero_rng(entropy):
        attempts.append(tuple(entropy))
        return _ConstantGenerator(0.0)

    monkeypatch.setattr(np.random, "default_rng", zero_rng)
    with pytest.raises(DegenerateChannelError, match="degenerate"):
        sample_channel(AntennaConfig(2, 2, 2, 2), seed=5)
    assert attempts == [(5, attempt) for attempt in range(8)]


def _draw(config, seed, attempt, pairs):
    rng = np.random.default_rng([seed & (2**64 - 1), attempt])
    return {(i, j): rng.standard_normal((config.node_antennas(i), config.node_antennas(j)))
            for i, j in pairs}


def _reference_links(config, seed, extended=False):
    # Reference: the scalar loop, one generator and one rank SVD per link.
    pairs = (list(itertools.product((1, 2, 3, 4), repeat=2)) if extended
             else [(3, 1), (3, 2), (4, 1), (4, 2)])
    for attempt in range(8):
        links = _draw(config, seed, attempt, pairs)
        if all(is_full_rank(m) for m in links.values()):
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
    default_rng = np.random.default_rng

    def rigged(entropy):
        return _ConstantGenerator(1.0) if list(entropy) == [12, 0] else default_rng(entropy)

    monkeypatch.setattr(np.random, "default_rng", rigged)
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


def test_sampling_caches_the_link_spectral_norms(monkeypatch):
    # The rank check's largest singular value is the link's spectral norm.
    channels = sample_channels(AntennaConfig(3, 1, 2, 4), range(20), extended=True)
    channels += sample_channels(AntennaConfig(2, 2, 2, 2), range(5))
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    links = ("h31", "h32", "h41", "h42")
    norms = {link: ChannelRealization.spectral_norms(channels, link).tolist() for link in links}
    monkeypatch.undo()
    assert calls == []
    for link in links:
        assert norms[link] == [float(np.linalg.norm(getattr(ch, link), 2)) for ch in channels]


def test_null_bases_equal_null_space():
    for counts in ((3, 2, 2, 3), (4, 1, 2, 1), (1, 3, 3, 1), (2, 2, 2, 2)):
        channels = sample_channels(AntennaConfig(*counts), range(12))
        for link in ("h31", "h32", "h41", "h42", "rx1", "rx2"):
            channels[5].null_basis(link)  # one cached channel in the batch
            bases = ChannelRealization.null_bases(channels, link)
            for ch, basis in zip(channels, bases):
                expected = null_space(getattr(ch, link))
                assert [v.tobytes() for v in basis] == [v.tobytes() for v in expected]
                assert basis is ch.null_basis(link)


def test_swap_users_example():
    config, scenario = swap_users(
        AntennaConfig(1, 3, 3, 1), CognitionScenario.from_bits([0, 1, 0, 0])
    )
    assert config == AntennaConfig(3, 1, 1, 3)
    assert scenario.bits == (1, 0, 0, 0)


def test_swap_users_symmetric_fixed_point():
    config = AntennaConfig(2, 2, 2, 2)
    scenario = CognitionScenario()
    assert swap_users(config, scenario) == (config, scenario)


@settings(max_examples=100)
@given(configs, scenarios)
def test_swap_users_is_involution(config, scenario):
    assert swap_users(*swap_users(config, scenario)) == (config, scenario)
