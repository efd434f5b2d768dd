import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from micdof import zf
from micdof import channel
from micdof.channel import (
    RANK_RTOL,
    AntennaConfig,
    ChannelRealization,
    CognitionScenario,
    _gather,
    _runs,
    sample_channel,
)
from micdof.regions import inner_points
from micdof.zf import (
    AchievabilityError,
    SweepCell,
    ZfScheme,
    _derived_seed,
    achievability_sweep,
    build_scheme,
    null_residual,
    transmit_rank,
    verify_scheme,
)


def scenario(*bits):
    return CognitionScenario.from_bits(bits)


def _nullable(config, sc):
    # r1, r2: how many streams fit in the cross channels' kernels, read off
    # the plan's nulled counts with neither receiver cognitive and m1 + m2
    # streams asked.
    dim = config.m1 + config.m2
    return _nulled(config, dataclasses.replace(sc, r1=False, r2=False), dim, dim)


def _nulled(config, sc, d1, d2):
    # The nulled counts of W1 and W2 in the cell's plan.
    return tuple(x.nulled for x in zf._plan(config, sc, d1, d2))


def _receiver_ranks(scheme, ch):
    # The receiver half of the pass rule for one scheme (zf._receivers): the
    # projected signal and residual interference ranks at receiver 1, then at
    # receiver 2, then whether each receiver decodes its message.
    rx1, rx2, _ = zf._receivers(zf._stacked([scheme], [ch]))
    return (rx1.signal[0], rx1.interference[0], rx2.signal[0], rx2.interference[0],
            rx1.passes[0], rx2.passes[0])


# ----------------------------------------------------------------- kernels


def test_null_space_by_inspection():
    basis = channel._null_rows(np.array([[[1.0, 0.0]]]))[0]
    assert len(basis) == 1
    assert np.allclose(basis[0], [0.0, 1.0])


def test_null_space_trivial_kernel():
    assert channel._null_rows(np.array([[[1.0, 2.0], [3.0, 4.0]]]))[0].shape == (0, 2)


def test_null_space_rank_nullity_and_residual():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((2, 4))
    basis = channel._null_rows(m[None])[0]
    assert len(basis) == 2
    scale = np.linalg.norm(m, 2)
    for v in basis:
        assert np.linalg.norm(m @ v) <= 1e-9 * scale * np.linalg.norm(v)
    gram = np.array([[float(u @ v) for v in basis] for u in basis])
    assert np.allclose(gram, np.eye(2), atol=1e-12)


# ------------------------------------------------------------ construction


def test_build_scheme_cognitive_rx2_example():
    config = AntennaConfig(2, 2, 2, 2)
    ch = sample_channel(config, seed=3)
    scheme = build_scheme(config, scenario(0, 1, 0, 1), 1, 1, ch, seed=0)
    assert _nullable(config, scheme.scenario) == (2, 0)
    # W1 is stacked over both transmitters; W2 uses transmitter 2's rows only.
    assert scheme.w1.shape == scheme.w2.shape == (4, 1)
    assert scheme.w1.all() and not scheme.w2[:2].any() and scheme.w2[2:].all()
    s1, i1, s2, i2, dec1, dec2 = _receiver_ranks(scheme, ch)
    assert (s1, i1) == (1, 1)
    assert (s2, i2) == (1, 0)
    assert dec1 and dec2


def test_build_scheme_single_antenna_single_stream():
    config = AntennaConfig(1, 1, 1, 1)
    ch = sample_channel(config, seed=4)
    scheme = build_scheme(config, scenario(0, 0, 0, 0), 1, 0, ch, seed=0)
    assert _nullable(config, scheme.scenario)[0] == 0
    assert _nulled(config, scheme.scenario, 1, 0)[0] == 0
    assert scheme.w1.shape == (2, 1) and scheme.w1[0, 0] != 0.0 and scheme.w1[1, 0] == 0.0
    assert scheme.w2.shape == (2, 0)
    s1, i1, s2, i2, dec1, dec2 = _receiver_ranks(scheme, ch)
    assert dec1
    assert dec2  # vacuous: no W2 streams
    assert s2 == 0


def test_build_scheme_rejects_unachievable_point():
    config = AntennaConfig(2, 2, 2, 2)
    ch = sample_channel(config, seed=1)
    for d1, d2 in ((2, 1), (0.5, 1), (-1, 0), (0, -1)):
        with pytest.raises(AchievabilityError, match="achievable"):
            build_scheme(config, scenario(0, 0, 0, 0), d1, d2, ch, seed=0)


def test_a_point_that_only_looks_integral_is_refused():
    # 1.0 and True compare equal to ints, yet only ints index the plan: each
    # is refused by name, as 1.5 is, while numpy integers are accepted.
    from micdof.rates import simulate_point

    config, sc = AntennaConfig(2, 2, 2, 2), scenario(0, 0, 0, 0)
    ch = sample_channel(config, seed=1)
    for d1, d2 in ((1.0, 1), (True, 0), (0, True), (np.bool_(True), 1)):
        named = rf"point \({d1},{d2}\) is not in the achievable"
        with pytest.raises(AchievabilityError, match=named):
            build_scheme(config, sc, d1, d2, ch, seed=0)
        with pytest.raises(AchievabilityError, match=named):
            simulate_point(config, sc, d1, d2, trials=2)
    scheme = build_scheme(config, sc, np.int64(1), np.int64(1), ch, seed=0)
    plain = build_scheme(config, sc, 1, 1, ch, seed=0)
    assert np.array_equal(scheme.w1, plain.w1) and np.array_equal(scheme.w2, plain.w2)


def test_build_scheme_rejects_mismatched_channel():
    ch = sample_channel(AntennaConfig(2, 2, 2, 2), seed=1)
    with pytest.raises(ValueError, match="channel"):
        build_scheme(AntennaConfig(1, 3, 3, 1), scenario(0, 0, 0, 0), 1, 0, ch, 0)


def test_receiver_model_rejects_a_channel_of_another_config():
    # (1,3,2,2) has the receiver shapes of (2,2,2,2), only the split of the
    # transmit antennas differs; diagnostics and rates must refuse it.
    from micdof.rates import achievable_rates

    config = AntennaConfig(2, 2, 2, 2)
    scheme = build_scheme(config, scenario(0, 0, 0, 0), 1, 1, sample_channel(config, 1), seed=0)
    other = sample_channel(AntennaConfig(1, 3, 2, 2), seed=1)
    assert all(channel._links([other], link).shape == (1, 2, 4) for link in ("rx1", "rx2"))
    with pytest.raises(ValueError, match="channel"):
        verify_scheme(scheme, other)
    with pytest.raises(ValueError, match="channel"):
        achievable_rates(scheme, other, 10.0)


def test_build_scheme_deterministic():
    config = AntennaConfig(2, 3, 3, 2)
    ch = sample_channel(config, seed=9)
    sc = scenario(0, 1, 0, 0)
    a = build_scheme(config, sc, 2, 1, ch, seed=5)
    b = build_scheme(config, sc, 2, 1, ch, seed=5)
    assert a.w1.tobytes() == b.w1.tobytes() and a.w2.tobytes() == b.w2.tobytes()
    assert a == a and a != b and len({a, b, a}) == 2  # identity, as for channels


def test_nulled_streams_and_independence():
    # Both transmitters cognitive: every stream is a stacked vector and all
    # of them fit into the cross-channel kernels.
    config = AntennaConfig(2, 2, 2, 2)
    ch = sample_channel(config, seed=6)
    scheme = build_scheme(config, scenario(1, 1, 0, 0), 2, 2, ch, seed=0)
    assert _nullable(config, scheme.scenario) == (2, 2)
    assert _nulled(config, scheme.scenario, 2, 2) == (2, 2)
    assert null_residual(scheme, ch) <= 1e-9
    assert transmit_rank(scheme) == 4
    assert verify_scheme(scheme, ch).all_decodable


def test_corrupted_null_vector_leaks_interference():
    config = AntennaConfig(2, 2, 2, 2)
    ch = sample_channel(config, seed=6)
    good = build_scheme(config, scenario(1, 1, 0, 0), 2, 2, ch, seed=0)
    rng = np.random.default_rng(1)
    dirty = good.w1.copy()
    dirty[:, 0] += 1e-2 * rng.standard_normal(4)  # W1 is active on all four rows
    corrupted = ZfScheme(
        config=good.config, scenario=good.scenario,
        d1=good.d1, d2=good.d2, w1=dirty, w2=good.w2,
    )
    assert null_residual(corrupted, ch) > 1e-9
    s1, i1, s2, i2, dec1, dec2 = _receiver_ranks(corrupted, ch)
    # the leak lands at receiver 2, which has no room for it
    assert i2 > 0
    assert not dec2


def test_cognitive_receiver_skips_nulling():
    # rx2 cognitive: no W1 vector is taken from the kernel even though r1 > 0.
    config = AntennaConfig(3, 2, 2, 2)
    ch = sample_channel(config, seed=2)
    scheme = build_scheme(config, scenario(0, 0, 1, 1), 2, 2, ch, seed=0)
    assert _nullable(config, scheme.scenario)[0] > 0
    assert _nulled(config, scheme.scenario, 2, 2) == (0, 0)
    assert verify_scheme(scheme, ch).all_decodable


def test_scheme_blocks_are_unit_columns_on_the_active_rows():
    # Every scheme at counts 1..3: a message's block is (m1+m2, d) with unit
    # columns, exactly 0 off its active rows (W1's a prefix, W2's a suffix),
    # and exactly its nulled columns lie in its cross link's kernel.
    checked = 0
    for counts in itertools.product((1, 2, 3), repeat=4):
        config = AntennaConfig(*counts)
        m1, dim = config.m1, config.m1 + config.m2
        for seed in (0, 1, 2):
            ch = sample_channel(config, seed=seed)
            for sc in CognitionScenario.all_scenarios():
                for d1, d2 in sorted(inner_points(config, sc).points):
                    scheme = build_scheme(config, sc, d1, d2, ch, seed=seed)
                    nulled1, nulled2 = _nulled(config, sc, d1, d2)
                    for block, streams, rows, link, nulled in (
                        (scheme.w1, d1, slice(dim if sc.t2 else m1), "rx2" if sc.t2 else "h41",
                         nulled1),
                        (scheme.w2, d2, slice(0 if sc.t1 else m1, dim), "rx1" if sc.t1 else "h32",
                         nulled2),
                    ):
                        assert block.shape == (dim, streams)
                        norms = np.linalg.norm(block, axis=0)
                        assert np.all(np.abs(norms - 1.0) <= 1e-12)
                        off = np.ones(dim, dtype=bool)
                        off[rows] = False
                        assert np.all(block[off] == 0.0)
                        h = channel._links([ch], link)[0]
                        leaks = np.linalg.norm(h @ block[rows], axis=0)
                        scale = _gather(_runs([ch]), ("norm", link))[0]
                        in_kernel = leaks <= RANK_RTOL * scale
                        assert int(in_kernel.sum()) == nulled and in_kernel[:nulled].all()
                    checked += 1
    assert checked == 3 * 8796  # the cells of achievability_sweep(3, ...)


def test_null_residual_matches_a_per_vector_reference_to_the_bit():
    # A 1-row cross link: transmitter 1 is cognitive, so both W2 streams are
    # nulled against rx1 (1 x 4).  The reference is the norm of a fresh 1-D
    # copy of each column of the product rx1 W2 that receiver 1 forms; the
    # norm of a strided column view changes last bits.
    config = AntennaConfig(1, 3, 1, 2)
    for seed in range(10):
        ch = sample_channel(config, seed=seed)
        scheme = build_scheme(config, scenario(1, 0, 0, 0), 0, 2, ch, seed=seed)
        assert _nulled(config, scheme.scenario, 0, 2)[1] == 2
        rx1 = channel._links([ch], "rx1")[0]
        norm = _gather(_runs([ch]), ("norm", "rx1"))[0]
        product = rx1 @ scheme.w2
        expected = max(
            float(np.linalg.norm(np.array(product[:, j]))) / norm for j in range(2)
        )
        assert null_residual(scheme, ch) == expected


def test_the_verdicts_gather_no_cross_link_matrix(monkeypatch):
    # Structural: the null residual is read from the interference each
    # receiver forms, so judging a batch whose W1 is nulled against h41
    # (t2 = 0) gathers the receiver stacks rx1 and rx2, and of h41 its norm
    # alone.
    config, sc, point = AntennaConfig(3, 1, 2, 2), scenario(0, 0, 0, 0), (1, 1)
    channels = channel.sample_channels(config, range(5))
    trials = zf._schemes([(config, sc, point, channels, 0)])[point]
    assert all(plan[0].link == "h41" and plan[0].nulled for plan in trials.plans)
    gather, keys = zf._gather, []

    def recorded(runs, key):
        keys.append(key)
        return gather(runs, key)

    monkeypatch.setattr(zf, "_gather", recorded)
    assert [failed for failed, _ in zf._verdicts(trials)] == [()] * 5
    assert {key for key in keys if isinstance(key, str)} == {"rx1", "rx2"}
    assert ("norm", "h41") in keys


def test_the_null_residual_is_the_column_norm_of_the_receiver_product():
    # One batch of (2, 0) mixes W1 nulled against h41 (t2 = 0, one column)
    # and against rx2 (t2 = 1, two columns).  Each residual is, to the bit,
    # the largest norm of a nulled column of rx2 W1, the product receiver 2
    # forms, over the cross link's norm; and it is within 1e-15 of the
    # per-vector product with the cross link on the active rows.
    config, point = AntennaConfig(3, 1, 2, 2), (2, 0)
    channels = channel.sample_channels(config, range(12))
    cells = [(config, scenario(0, t2, 0, 0), point, channels[6 * t2:6 * t2 + 6], 10 * t2)
             for t2 in (0, 1)]
    trials = zf._schemes(cells)[point]
    assert [(x.link, x.nulled) for x, _ in trials.plans] == [("h41", 1)] * 6 + [("rx2", 2)] * 6
    assert not any(plan[1].nulled for plan in trials.plans)
    for t, ((failed, residual), (plan, ch)) in enumerate(
            zip(zf._verdicts(trials), zip(trials.plans, trials.channels))):
        x, w1 = plan[0], trials.w1[t]
        product = channel._links([ch], "rx2")[0] @ w1
        norm = _gather(_runs([ch]), ("norm", x.link))[0]
        assert failed == ()
        assert residual == max(zf._norm(product[:, j].copy()) for j in range(x.nulled)) / norm
        h = channel._links([ch], x.link)[0]
        reference = max(zf._norm(h @ w1[:x.rows, j].copy()) for j in range(x.nulled)) / norm
        assert abs(residual - reference) <= 1e-15


def test_norm_matches_numpy_to_the_bit():
    # zf._norm stands in for np.linalg.norm of 1-D real vectors (isotropic
    # draws, null residuals): random vectors of the sweep's lengths over wide
    # scales, and 1-row links times a vector, as at a 1-antenna receiver.
    rng = np.random.default_rng(12)
    for dim in range(1, 9):
        for scale in (1e-300, 1e-160, 1e-8, 1.0, 1e8, 1e150):
            for _ in range(40):
                vec = scale * rng.standard_normal(dim)
                assert zf._norm(vec) == float(np.linalg.norm(vec))
    for cols in range(1, 9):
        for _ in range(40):
            vec = rng.standard_normal((1, cols)) @ rng.standard_normal(cols)
            assert vec.shape == (1,) and zf._norm(vec) == float(np.linalg.norm(vec))


# ----------------------------------------------------------- trial verdict


def test_trial_verdict_passes_a_built_scheme():
    config = AntennaConfig(2, 2, 2, 2)
    ch = sample_channel(config, seed=6)
    scheme = build_scheme(config, scenario(1, 1, 0, 0), 2, 2, ch, seed=0)
    assert zf._verdicts(zf._stacked([scheme], [ch]))[0] == ((), null_residual(scheme, ch))


def test_trial_verdict_fails_a_random_null_vector():
    # Receiver 2 has room for the leak, but the leak lifts its interference
    # rank above u_2 = 0, and the residual criterion fails too.
    config = AntennaConfig(3, 1, 1, 2)
    ch = sample_channel(config, seed=3)
    scheme = build_scheme(config, scenario(0, 0, 0, 0), 1, 0, ch, seed=0)
    assert _nulled(config, scheme.scenario, 1, 0)[0] == 1
    vec = np.random.default_rng(1).standard_normal(3)
    w1 = scheme.w1.copy()
    w1[:3, 0] = vec / np.linalg.norm(vec)  # W1's active rows: transmitter 1
    leaky = dataclasses.replace(scheme, w1=w1)
    failed, residual = zf._verdicts(zf._stacked([leaky], [ch]))[0]
    assert failed == ("rx2 interference rank", "null residual")
    assert residual > RANK_RTOL


def test_trial_verdict_fails_a_duplicated_vector():
    config = AntennaConfig(2, 2, 2, 2)
    ch = sample_channel(config, seed=6)
    scheme = build_scheme(config, scenario(1, 1, 0, 0), 2, 2, ch, seed=0)
    doubled = dataclasses.replace(scheme, w1=scheme.w1[:, [0, 0]])
    failed, residual = zf._verdicts(zf._stacked([doubled], [ch]))[0]
    assert "transmit rank" in failed and "null residual" not in failed
    assert transmit_rank(doubled) == 3
    assert residual <= RANK_RTOL


def test_verify_scheme_fails_a_repeated_message_on_the_transmit_rank():
    # W2 := W1 with every node cognitive: each receiver cancels the message
    # it knows, so both receivers decode, yet the two transmit vectors span
    # one dimension.  verify_scheme is the sweep's verdict, so it fails.
    config = AntennaConfig(2, 2, 2, 2)
    ch = sample_channel(config, seed=40)
    scheme = build_scheme(config, scenario(1, 1, 1, 1), 1, 1, ch, seed=0)
    repeated = dataclasses.replace(scheme, w2=scheme.w1)
    assert _receiver_ranks(repeated, ch)[4:] == (True, True)
    verdict = verify_scheme(repeated, ch)
    assert isinstance(verdict, zf.TrialVerdict)
    assert verdict.failed == ("transmit rank",) and not verdict.all_decodable
    assert verdict == zf._verdicts(zf._stacked([repeated], [ch]))[0]


def test_verify_scheme_fails_a_corrupted_kernel_vector_on_the_null_residual():
    # At (2,1,2,1) [0,0,0,0], point (2, 0), W1's first stream is nulled
    # against h41 and its second leaves u_2 = 1 = n2 at receiver 2, which
    # decodes no stream: a leak from the first stream cannot raise a rank
    # there, so the receiver ranks pass and only the null residual fails.
    config, sc = AntennaConfig(2, 1, 2, 1), scenario(0, 0, 0, 0)
    assert _nulled(config, sc, 2, 0) == (1, 0)
    ch = sample_channel(config, seed=0)
    scheme = build_scheme(config, sc, 2, 0, ch, seed=0)
    assert verify_scheme(scheme, ch).failed == ()
    w1 = scheme.w1.copy()
    w1[:2, 0] += 1e-2 * np.random.default_rng(1).standard_normal(2)  # transmitter 1's rows
    w1[:, 0] /= np.linalg.norm(w1[:, 0])
    corrupted = dataclasses.replace(scheme, w1=w1)
    assert _receiver_ranks(corrupted, ch)[4:] == (True, True)
    verdict = verify_scheme(corrupted, ch)
    assert verdict.failed == ("null residual",) and not verdict.all_decodable
    assert verdict.null_residual > RANK_RTOL


def test_trial_verdict_fails_an_interference_rank_short_of_u():
    # No stream can be nulled at (2,2,4,4) [0,0,0,0], so u_1 = d2 = 2.  W2's
    # first column twice gives receiver 1 interference of rank 1: its signal
    # is still clear of it, yet the interference rank falls short of u_1.
    config = AntennaConfig(2, 2, 4, 4)
    ch = sample_channel(config, seed=5)
    scheme = build_scheme(config, scenario(0, 0, 0, 0), 1, 2, ch, seed=0)
    assert _nulled(config, scheme.scenario, 1, 2) == (0, 0)
    doubled = dataclasses.replace(scheme, w2=scheme.w2[:, [0, 0]])
    failed, residual = zf._verdicts(zf._stacked([doubled], [ch]))[0]
    assert failed == ("rx1 interference rank", "rx2 signal rank", "transmit rank")
    assert residual == 0.0
    ranks = _receiver_ranks(doubled, ch)
    s1, i1, s2, i2, dec1, dec2 = ranks
    assert (s1, i1) == (1, 1)
    assert (s2, i2) == (1, 1)
    assert not dec1 and not dec2
    assert ranks == _union_rank_diagnostics(doubled, ch)


@settings(max_examples=200, deadline=None)
@given(
    counts=st.tuples(*[st.integers(1, 3)] * 4),
    s_index=st.integers(0, 15),
    k=st.integers(-6, 6),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_trial_verdict_is_scale_invariant(counts, s_index, k, seed, data):
    # Every rank and residual is relative to a channel norm, so scaling all
    # four links by 10^k changes no verdict.
    config = AntennaConfig(*counts)
    sc = CognitionScenario.all_scenarios()[s_index]
    point = data.draw(st.sampled_from(sorted(inner_points(config, sc).points)))
    ch = sample_channel(config, seed=seed)
    scaled = ChannelRealization(
        *(h * 10.0**k for h in (ch.h31, ch.h32, ch.h41, ch.h42)), seed=seed
    )
    failed, residual = zf._verdicts(
        zf._stacked([build_scheme(config, sc, *point, ch, seed=seed)], [ch])
    )[0]
    scaled_failed, scaled_residual = zf._verdicts(
        zf._stacked([build_scheme(config, sc, *point, scaled, seed=seed)], [scaled])
    )[0]
    assert scaled_failed == failed
    assert scaled_residual == pytest.approx(residual, rel=0, abs=1e-12)


# ------------------------------------------------------------------ sweeps


def test_sweep_single_antenna_all_scenarios():
    report = achievability_sweep(max_antennas=1, trials=5, seed=0)
    assert report.all_passed
    assert {c.config for c in report.cells} == {AntennaConfig(1, 1, 1, 1)}
    assert len({c.scenario for c in report.cells}) == 16
    assert report.worst_null_residual <= 1e-9


def test_sweep_zero_trials_is_empty():
    report = achievability_sweep(max_antennas=2, trials=0, seed=0)
    assert report.cells == ()
    assert report.total_trials == 0 and report.all_passed


def test_sweep_rejects_bad_arguments():
    with pytest.raises(ValueError):
        achievability_sweep(max_antennas=0, trials=1)


def test_sweep_rejects_a_negative_trial_count():
    with pytest.raises(ValueError, match="trials"):
        achievability_sweep(2, -1)


@pytest.mark.parametrize("max_antennas, trials, refused", [
    (2.0, 1, "max_antennas must be an integer, got 2.0"),
    (True, 1, "max_antennas must be an integer, got True"),
    (1, 1.0, "trials must be an integer, got 1.0"),
    (1, True, "trials must be an integer, got True"),
])
def test_sweep_counts_follow_the_integer_rule(max_antennas, trials, refused):
    with pytest.raises(ValueError) as error:
        achievability_sweep(max_antennas, trials)
    assert str(error.value) == refused


def test_sweep_takes_numpy_integer_counts_as_ints():
    report = achievability_sweep(np.int64(1), np.int64(2), seed=5)
    assert report.to_json_list() == achievability_sweep(1, 2, seed=5).to_json_list()


@pytest.mark.parametrize("seed", [1.5, 2.0, True, np.float64(2.0)],
                         ids=["fraction", "float", "bool", "numpy float"])
def test_sweep_and_scheme_seeds_follow_the_integer_rule(seed):
    config, refused = AntennaConfig(2, 2, 2, 2), f"seed must be an integer, got {seed!r}"
    with pytest.raises(ValueError) as error:
        achievability_sweep(1, 1, seed=seed)
    assert str(error.value) == refused
    with pytest.raises(ValueError) as error:
        build_scheme(config, scenario(0, 0, 0, 0), 1, 1, sample_channel(config, seed=1),
                     seed=seed)
    assert str(error.value) == refused


def test_a_numpy_integer_seed_gives_the_bytes_of_the_plain_int():
    assert (json.dumps(achievability_sweep(1, 1, seed=np.int64(5)).to_json_list())
            == json.dumps(achievability_sweep(1, 1, seed=5).to_json_list()))
    config, sc = AntennaConfig(2, 3, 2, 2), scenario(0, 1, 0, 0)
    ch = sample_channel(config, seed=np.int64(4))
    assert type(ch.seed) is int
    plain = build_scheme(config, sc, 2, 1, sample_channel(config, seed=4), seed=9)
    scheme = build_scheme(config, sc, 2, 1, ch, seed=np.uint64(9))
    assert scheme.w1.tobytes() + scheme.w2.tobytes() == plain.w1.tobytes() + plain.w2.tobytes()


def test_sweep_report_json_schema():
    report = achievability_sweep(max_antennas=1, trials=2, seed=3)
    data = report.to_json_list()
    assert data
    for cell in data:
        assert set(cell) == {
            "config", "scenario", "point", "trials", "passes",
            "worst_null_residual",
        }
        assert cell["trials"] == 2


def test_a_draw_within_the_rank_tolerance_fails_its_one_cell():
    # Known answer: the round of seed 291200037 fails one trial, at (1,3,1,1)
    # [0,1,1,1] (0,1), where receiver 2's signal h42 w2 lies within RANK_RTOL
    # of the channel norm.  The rank rule fails such draws by design; this
    # pins the draw, to be told apart from a wrong scheme.
    failures = achievability_sweep(3, 1, seed=291200037).failures()
    config, sc, seed = AntennaConfig(1, 3, 1, 1), scenario(0, 1, 1, 1), 5542193897558928170
    assert [(c.config, c.scenario, c.point, c.trials, c.passes) for c in failures] == [
        (config, sc, (0, 1), 1, 0)]
    assert _derived_seed(291200037, config.counts, 7) == seed  # [0,1,1,1] is scenario 7
    ch = sample_channel(config, seed)
    scheme = build_scheme(config, sc, 0, 1, ch, seed)
    assert zf._verdicts(zf._stacked([scheme], [ch])) == [(("rx2 signal rank",), 0.0)]


def test_the_rank_rules_margins_have_a_linear_tail():
    # The rank rule fails a generic draw by design when a projected signal
    # singular value falls under RANK_RTOL times the channel norm.
    # Its margin (that value over RANK_RTOL * norm, the smaller of the two
    # receivers) has a linear tail: each decade divides the count by about
    # 10.  So 75 / 20,000 * 1e-6, about 3.8e-9 per trial, falls under 1 and
    # fails; rate_mc's 50-trial (2,2,2,2) case fails about 1.9e-7 per round.
    config, sc = AntennaConfig(2, 2, 2, 2), scenario(0, 0, 0, 0)
    channels = channel.sample_channels(config, range(20000))
    rx1, rx2, failed = zf._receivers(zf._schemes([(config, sc, (1, 1), channels, 0)])[1, 1])
    runs = _runs(channels)
    margin = np.minimum(*(rx.spectrum[:, -1] / (RANK_RTOL * _gather(runs, ("norm", link)))
                          for rx, link in ((rx1, "rx1"), (rx2, "rx2"))))
    counts = [int((margin < 10.0**k).sum()) for k in (6, 5, 4, 3)]
    assert counts == [75, 9, 2, 0] and failed == {}
    assert all(3 <= a / b <= 30 for a, b in zip(counts, counts[1:]) if b)


def test_sweep_two_antennas():
    report = achievability_sweep(max_antennas=2, trials=20, seed=1)
    assert report.all_passed
    assert report.total_trials == 20 * len(report.cells)


def test_sweep_matches_a_loop_without_shared_geometry():
    # Reference: every point samples its channels afresh, so no cached
    # geometry is shared between points, and applies the pass rule inline.
    seed, trials = 7, 2
    expected = []
    scenarios = CognitionScenario.all_scenarios()
    for counts in itertools.product((1, 2), repeat=4):
        config = AntennaConfig(*counts)
        for s_index, sc in enumerate(scenarios):
            cell_seed = _derived_seed(seed, counts, s_index)
            for d1, d2 in sorted(inner_points(config, sc).points):
                passes, worst = 0, 0.0
                for trial in range(trials):
                    ch = sample_channel(config, seed=cell_seed + trial)
                    scheme = build_scheme(config, sc, d1, d2, ch, seed=cell_seed + trial)
                    residual = null_residual(scheme, ch)
                    worst = max(worst, residual)
                    passes += int(
                        all(_receiver_ranks(scheme, ch)[4:])
                        and residual <= RANK_RTOL
                        and transmit_rank(scheme) == d1 + d2
                    )
                expected.append(SweepCell(config, sc, (d1, d2), trials, passes, worst))
    report = achievability_sweep(max_antennas=2, trials=trials, seed=seed)
    assert report.cells == tuple(expected)


def test_sweep_derives_each_channel_geometry_once(monkeypatch):
    # Operation counts, not timings: the spectral norms and null-space bases
    # of a channel are computed once and shared by all points of its cell.
    # Channels are the seeds passed to sample_channels; every spectral norm
    # past sampling's is one row of a batched SVD over a channel stack,
    # computed on first use (channel._Stack.__missing__), and every null basis
    # one row of a batched SVD in _null_rows, which zf._schemes calls.
    counts = {"channels": 0, "spectral_norms": 0, "null_bases": 0, "other_full_svds": 0}
    sample, svd = zf.sample_channels, np.linalg.svd
    inside = [None]

    def counted_sample(config, seeds, *args, **kwargs):
        seeds = list(seeds)
        counts["channels"] += len(seeds)
        return sample(config, seeds, *args, **kwargs)

    def within(name, call):
        def wrapped(*args, **kwargs):
            outer, inside[0] = inside[0], name
            try:
                return call(*args, **kwargs)
            finally:
                inside[0] = outer
        return wrapped

    def counted_svd(a, full_matrices=True, *args, **kwargs):
        if inside[0]:
            counts[inside[0]] += len(a)
        elif full_matrices and kwargs.get("compute_uv", True):
            counts["other_full_svds"] += 1
        return svd(a, full_matrices, *args, **kwargs)

    monkeypatch.setattr(zf, "sample_channels", counted_sample)
    monkeypatch.setattr(channel._Stack, "__missing__",
                        within("spectral_norms", channel._Stack.__missing__))
    monkeypatch.setattr(zf, "_null_rows", within("null_bases", zf._null_rows))
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    report = achievability_sweep(max_antennas=2, trials=1, seed=0)
    assert report.total_trials == 1290
    assert counts["channels"] == 256
    assert 0 < counts["spectral_norms"] <= 4 * counts["channels"]
    assert counts["null_bases"] <= 2 * counts["channels"]
    assert counts["other_full_svds"] == 0


def test_sampling_and_null_basis_svds_do_not_grow_with_trials(monkeypatch):
    # Operation counts: sampling makes one SVD per distinct link shape and
    # null bases one per cross link, whatever the number of trials.
    from micdof import rates

    svd = np.linalg.svd
    counts = {"svds": 0}
    inside = [False]

    def counted_svd(*args, **kwargs):
        counts["svds"] += inside[0]
        return svd(*args, **kwargs)

    def within(call):
        def wrapped(*args, **kwargs):
            inside[0] = True
            try:
                return call(*args, **kwargs)
            finally:
                inside[0] = False
        return wrapped

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    for module in (zf, rates):
        monkeypatch.setattr(module, "sample_channels", within(module.sample_channels))
    monkeypatch.setattr(zf, "_null_rows", within(zf._null_rows))

    def svds(run, trials):
        counts["svds"] = 0
        run(trials)
        return counts["svds"]

    # (2,4,3,3): four links of shapes (3,2) and (3,4); W2 is nulled against
    # h32, one null basis.
    config, sc = AntennaConfig(2, 4, 3, 3), scenario(0, 1, 0, 1)
    point = lambda trials: rates.simulate_point(config, sc, 2, 2, trials=trials, seed=3)
    assert svds(point, 2) == svds(point, 50) == 3
    # Extended channels: sixteen links of one shape, no null basis.
    coop = lambda trials: rates.cooperation_dof_gap_check(AntennaConfig(4, 4, 4, 4), trials=trials)
    assert svds(coop, 1) == svds(coop, 10) == 1
    sweep = lambda trials: achievability_sweep(max_antennas=2, trials=trials, seed=0)
    assert 0 < svds(sweep, 1) == svds(sweep, 4)


def test_seeding_is_batched_and_skips_all_nulled_points(monkeypatch):
    # Operation counts: seeded paths build no default_rng; sampling computes
    # one batch of generator states per attempt and scheme building one per
    # batch of cells, whatever the number of trials; and a point whose
    # streams are all nulled computes no state for its vectors.
    from micdof import channel, rates

    def no_default_rng(*args, **kwargs):
        raise AssertionError("a seeded path built np.random.default_rng")

    monkeypatch.setattr(np.random, "default_rng", no_default_rng)
    counts = {"channel": _count_states(monkeypatch, channel), "zf": _count_states(monkeypatch, zf)}

    def calls(run, trials):
        for count in counts.values():
            count.update(calls=0, rows=0)
        run(trials)
        return {name: count["calls"] for name, count in counts.items()}

    sweep = lambda trials: achievability_sweep(max_antennas=2, trials=trials, seed=0)
    # one per config for the channels, one per (m1+m2, n1, n2) family for the vectors
    assert calls(sweep, 1) == calls(sweep, 5) == {"channel": 16, "zf": 12}
    config, sc = AntennaConfig(2, 4, 3, 3), scenario(0, 1, 0, 1)
    point = lambda trials: rates.simulate_point(config, sc, 2, 2, trials=trials, seed=3)
    assert calls(point, 1) == calls(point, 5) == {"channel": 1, "zf": 1}
    assert counts["zf"]["rows"] == 5
    # (3,3,2,2) without cognition: each stream of (1,1) is nulled.
    config, sc = AntennaConfig(3, 3, 2, 2), scenario(0, 0, 0, 0)
    nulled = lambda trials: rates.simulate_point(config, sc, 1, 1, trials=trials, seed=3)
    assert calls(nulled, 5) == {"channel": 1, "zf": 1}
    assert counts["channel"]["rows"] == 5 and counts["zf"]["rows"] == 0


def _scalar_rank(matrix, scale):
    # Reference: the rank rule on one matrix, with a 2-D SVD; a zero scale
    # gives rank 0.
    s = np.linalg.svd(matrix, compute_uv=False)
    return int(np.count_nonzero(s > RANK_RTOL * scale)) if scale > 0 else 0


def _union_rank_diagnostics(scheme, ch):
    # Reference: the projected signal rank as rank([S I]) - rank(I), and u_i
    # in closed form from the nullable counts: the un-nulled streams of the
    # other message, 0 at a cognitive receiver.  In _receiver_ranks' order.
    def receiver(full, scale, signal_cols, interference_cols, streams, unnulled):
        signal = full @ signal_cols
        if interference_cols is None:
            i, s = 0, _scalar_rank(signal, scale)
        else:
            intf = full @ interference_cols
            i = _scalar_rank(intf, scale)
            s = _scalar_rank(np.hstack([signal, intf]), scale) - i
        return s, i, s == streams and i == unnulled

    w1, w2, sc = scheme.w1, scheme.w2, scheme.scenario
    r1, r2 = _nullable(scheme.config, sc)
    u1, u2 = (0 if sc.r1 else max(scheme.d2 - r2, 0)), (0 if sc.r2 else max(scheme.d1 - r1, 0))
    rx1, rx2 = channel._links([ch], "rx1")[0], channel._links([ch], "rx2")[0]
    norm1, norm2 = (_gather(_runs([ch]), ("norm", link))[0] for link in ("rx1", "rx2"))
    s1, i1, dec1 = receiver(rx1, norm1, w1, None if sc.r1 else w2, scheme.d1, u1)
    s2, i2, dec2 = receiver(rx2, norm2, w2, None if sc.r2 else w1, scheme.d2, u2)
    return s1, i1, s2, i2, dec1, dec2


def test_diagnostics_match_union_rank_reference():
    seed, trials = 7, 2
    scenarios = CognitionScenario.all_scenarios()
    checked = 0
    for counts in itertools.product((1, 2), repeat=4):
        config = AntennaConfig(*counts)
        for s_index, sc in enumerate(scenarios):
            cell_seed = _derived_seed(seed, counts, s_index)
            channels = [sample_channel(config, seed=cell_seed + t) for t in range(trials)]
            for d1, d2 in sorted(inner_points(config, sc).points):
                for trial, ch in enumerate(channels):
                    scheme = build_scheme(config, sc, d1, d2, ch, seed=cell_seed + trial)
                    assert _receiver_ranks(scheme, ch) == _union_rank_diagnostics(scheme, ch)
                    checked += 1
    assert checked == achievability_sweep(max_antennas=2, trials=trials, seed=seed).total_trials


def _aligned(ch, scheme):
    # W2's stream drawn so receiver 1 sees it along W1's direction; the
    # vectors stay independent in transmit space and none is nulled.
    vec = np.linalg.solve(ch.h32, ch.h31 @ scheme.w1[:2, 0])
    w2 = np.zeros((4, 1))
    w2[2:, 0] = vec / np.linalg.norm(vec)  # W2's active rows: transmitter 2
    return dataclasses.replace(scheme, w2=w2)


def test_diagnostics_see_an_intersecting_interference():
    # Negative control for the projected rank: at receiver 1 the interference
    # reaches u_1 = 1 along the signal's direction, so the signal is lost.
    config = AntennaConfig(2, 2, 2, 2)
    ch = sample_channel(config, seed=6)
    aligned = _aligned(ch, build_scheme(config, scenario(0, 0, 0, 0), 1, 1, ch, seed=0))
    ranks = _receiver_ranks(aligned, ch)
    s1, i1, s2, i2, dec1, dec2 = ranks
    assert (s1, i1) == (0, 1)
    assert not dec1 and dec2
    assert ranks == _union_rank_diagnostics(aligned, ch)


# ------------------------------------------------------------ stacked path


def _group(config, point, trials=2, seed=40):
    """Schemes and channels of one (config, point) batch: every scenario that
    has the point, ``trials`` channels each, as the sweep stacks them."""
    schemes, channels = [], []
    for s_index, sc in enumerate(CognitionScenario.all_scenarios()):
        if point not in inner_points(config, sc).points:
            continue
        for trial in range(trials):
            channels.append(sample_channel(config, seed=seed + 100 * s_index + trial))
            schemes.append(build_scheme(config, sc, *point, channels[-1], seed=seed + trial))
    return schemes, channels


def _corrupt_one(config, point, bits, corrupt):
    """Verdicts of a clean group and of the same group with one scheme of
    scenario ``bits`` corrupted; returns (clean, dirty, corrupted index)."""
    schemes, channels = _group(config, point)
    index = next(i for i, s in enumerate(schemes) if s.scenario.bits == bits)
    dirty = list(schemes)
    dirty[index] = corrupt(channels[index], schemes[index])
    assert len(schemes) >= 4
    verdicts = [zf._verdicts(zf._stacked(group, channels)) for group in (schemes, dirty)]
    return (*verdicts, index)


def _assert_only(clean, dirty, index, *criteria):
    assert all(failed == () for failed, _ in clean)
    assert dirty[index][0] == criteria
    for i, (verdict, reference) in enumerate(zip(dirty, clean)):
        if i != index:
            assert verdict == reference  # same pass, same residual to the bit


def test_stacked_verdict_fails_only_a_random_null_vector():
    # Receiver 2 has room for the leak, but it lifts the interference rank
    # there above u_2 = 0, and the residual criterion fails too.
    def leaky(ch, scheme):
        vec = np.random.default_rng(1).standard_normal(3)
        w1 = scheme.w1.copy()
        w1[:3, 0] = vec / np.linalg.norm(vec)  # W1's active rows: transmitter 1
        return dataclasses.replace(scheme, w1=w1)

    clean, dirty, index = _corrupt_one(AntennaConfig(3, 1, 1, 2), (1, 0), (0, 0, 0, 0), leaky)
    _assert_only(clean, dirty, index, "rx2 interference rank", "null residual")
    assert dirty[index][1] > RANK_RTOL


def test_stacked_verdict_fails_only_a_duplicated_vector():
    # Both receivers are cognitive, so W2 reusing W1's vector costs only the
    # transmit rank.
    clean, dirty, index = _corrupt_one(
        AntennaConfig(2, 2, 2, 2), (1, 1), (1, 1, 1, 1),
        lambda ch, scheme: dataclasses.replace(scheme, w2=scheme.w1),
    )
    _assert_only(clean, dirty, index, "transmit rank")


def test_stacked_verdict_fails_only_an_aligned_interference():
    clean, dirty, index = _corrupt_one(AntennaConfig(2, 2, 2, 2), (1, 1), (0, 0, 0, 0), _aligned)
    _assert_only(clean, dirty, index, "rx1 signal rank")


def test_batch_of_one_matches_its_batch():
    # Items with different scenarios and interference ranks share a batch;
    # each gets the verdict, diagnostics and projected bits it gets alone.
    config, point = AntennaConfig(3, 2, 2, 3), (1, 1)
    schemes, channels = _group(config, point, trials=3)
    *batch, failed = zf._receivers(zf._stacked(schemes, channels))
    assert len(set(batch[1].interference)) > 1 and not failed  # ranks at receiver 2
    assert zf._verdicts(zf._stacked(schemes, channels)) == [
        zf._verdicts(zf._stacked([scheme], [ch]))[0] for scheme, ch in zip(schemes, channels)
    ]
    for i, (scheme, ch) in enumerate(zip(schemes, channels)):
        *alone, _ = zf._receivers(zf._stacked([scheme], [ch]))
        for rx, rx_alone in zip(batch, alone):
            _assert_same_receiver(rx, i, rx_alone)


def _assert_same_receiver(rx, i, alone):
    # Item i of a batch's receiver against the receiver of its batch of one.
    assert [rx.interference[i], rx.unnulled[i], rx.signal[i], rx.streams, rx.passes[i]] == [
        alone.interference[0], alone.unnulled[0], alone.signal[0], alone.streams, alone.passes[0]]
    assert rx.spectrum[i].tobytes() == alone.spectrum[0].tobytes()  # projected spectrum


def test_a_shape_batch_of_mixed_configs_and_stacks_matches_its_batches_of_one():
    # (1,2,2,2) and (2,1,2,2) share (m1+m2, n1, n2), so their trials at a
    # point are one batch.  The (1,2,2,2) channels are one sampled stack; the
    # (2,1,2,2) ones are sampled one seed at a time, so they share a config
    # but not a stack.  Every trial gets the block, verdict, diagnostics and
    # projected bits it gets alone.
    point, cells, expected = (1, 1), [], []
    sampled = {AntennaConfig(1, 2, 2, 2): channel.sample_channels(AntennaConfig(1, 2, 2, 2),
                                                                 range(40, 72)),
               AntennaConfig(2, 1, 2, 2): [sample_channel(AntennaConfig(2, 1, 2, 2), seed=s)
                                           for s in range(40, 72)]}
    for config, channels in sampled.items():
        for s_index, sc in enumerate(CognitionScenario.all_scenarios()):
            if point in inner_points(config, sc).points:
                chs, seed = channels[2 * s_index:2 * s_index + 2], 100 * s_index
                cells.append((config, sc, point, chs, seed))
                expected += [(build_scheme(config, sc, *point, ch, seed=seed + t), ch)
                             for t, ch in enumerate(chs)]
    trials = zf._schemes(cells)[point]
    assert len({id(ch._row[0]) for _, ch in expected}) > 2 and len(expected) == len(trials.w1)
    assert any(x.nulled for plan in trials.plans for x in plan)
    verdicts, (*batch, _) = zf._verdicts(trials), zf._receivers(trials)
    for i, (scheme, ch) in enumerate(expected):
        assert trials.w1[i].tobytes() == scheme.w1.tobytes()
        assert trials.w2[i].tobytes() == scheme.w2.tobytes()
        alone = zf._stacked([scheme], [ch])
        assert verdicts[i] == zf._verdicts(alone)[0]
        for rx, rx_alone in zip(batch, zf._receivers(alone)):
            _assert_same_receiver(rx, i, rx_alone)


def test_the_sweep_schemes_one_antenna_family_at_a_time(monkeypatch):
    # Structural: achievability_sweep hands _schemes the cells of one
    # (m1+m2, n1, n2) family per call, so what it holds at once scales with a
    # family, not with the sweep: 12 families at counts 1..2.
    schemes, families = zf._schemes, []

    def recorded(cells):
        families.append({(c.m1 + c.m2, c.n1, c.n2) for c, *_ in cells})
        return schemes(cells)

    monkeypatch.setattr(zf, "_schemes", recorded)
    for trials in (1, 5):
        families.clear()
        assert achievability_sweep(max_antennas=2, trials=trials, seed=0).all_passed
        assert all(len(family) == 1 for family in families)
        assert len(families) == len(set().union(*families)) == 12


def test_the_sweep_plans_each_cell_once(monkeypatch):
    # Operation count: _schemes asks _plan once per cell, and the pass rule,
    # the null residual and the rates read the plan the blocks were built by.
    from micdof import rates

    plan, calls = zf._plan, [0]

    def counted(*args):
        calls[0] += 1
        return plan(*args)

    monkeypatch.setattr(zf, "_plan", counted)
    assert achievability_sweep(max_antennas=3, trials=1, seed=21).total_trials == calls[0] == 8796
    config, sc = AntennaConfig(2, 4, 3, 3), scenario(0, 1, 0, 1)
    channels = channel.sample_channels(config, range(3))
    trials = zf._schemes([(config, sc, (2, 2), channels, 3)])[2, 2]
    schemes = [build_scheme(config, sc, 2, 2, ch, seed=3 + t) for t, ch in enumerate(channels)]
    calls[0] = 0
    assert not any(failed for failed, _ in zf._verdicts(trials))
    assert len(rates._rate_models(trials)) == 2 and calls[0] == 0
    zf._stacked(schemes, channels)
    assert calls[0] == 3  # once per scheme


def test_verdict_svds_do_not_grow_with_trials(monkeypatch):
    # Operation counts, not timings: the verdict stage makes a few batched
    # SVD calls per (m1+m2, n1, n2, d1, d2) group, whatever the number of
    # trials.
    svd, verdicts = np.linalg.svd, zf._verdicts
    counts = {"groups": 0, "svds": 0}
    inside = [False]

    def counted_svd(*args, **kwargs):
        counts["svds"] += inside[0]
        return svd(*args, **kwargs)

    def within(flag, call, count=None):
        def wrapped(*args, **kwargs):
            if count:
                counts[count] += 1
            outer, inside[0] = inside[0], flag
            try:
                return call(*args, **kwargs)
            finally:
                inside[0] = outer
        return wrapped

    # Spectral norms are per-stack work (cached), even when a verdict asks.
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(zf, "_verdicts", within(True, verdicts, "groups"))
    monkeypatch.setattr(channel._Stack, "__missing__", within(False, channel._Stack.__missing__))
    seen = []
    for trials in (1, 4):
        counts.update(groups=0, svds=0)
        report = achievability_sweep(max_antennas=2, trials=trials, seed=0)
        assert report.total_trials == 1290 * trials and report.all_passed
        seen.append(dict(counts))
    groups = len({
        (m1 + m2, n1, n2, *point)
        for m1, m2, n1, n2 in itertools.product((1, 2), repeat=4)
        for sc in CognitionScenario.all_scenarios()
        for point in inner_points(AntennaConfig(m1, m2, n1, n2), sc).points
    })
    assert seen[0] == seen[1]
    assert seen[0]["groups"] == groups
    assert 0 < seen[0]["svds"] <= 5 * groups  # 2 per receiver, 1 transmit rank


def _embed(vectors, dim, at_end):
    # Reference: active-space vectors as the columns of a zero (dim, k) block,
    # on its first rows, or on its last rows when at_end.
    block = np.zeros((dim, len(vectors)))
    for j, v in enumerate(vectors):
        block[slice(dim - len(v), dim) if at_end else slice(len(v)), j] = v
    return block


def _vector_rng(seed, d1, d2):
    # Reference: a fresh Philox generator under the vector key of (seed, d1, d2).
    key = np.array([seed & (2**64 - 1), (d1 + 1) * 2**32 + d2], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _null_basis(ch, link):
    # The null basis of one channel's link, as a batch of one.
    return channel._null_rows(channel._links([ch], link))[0]


def _eager_vectors(config, sc, d1, d2, ch, seed, rng=None):
    # Reference: the generator is built before any stream is placed.  The
    # first min(streams, r) streams are rows of the cross link's null basis,
    # where r = (link columns - link rows)^+ by the antenna counts, and none
    # when the opposite receiver is cognitive; each isotropic vector is drawn
    # and normalised on its own, and a zero vector is drawn again.  ``rng``
    # stands in for the seeded generator.
    if rng is None:
        rng = _vector_rng(seed, d1, d2)

    def message(streams, active_dim, link, link_rows, opposite_cognitive, at_end):
        vectors, nulled = [], min(streams, max(active_dim - link_rows, 0))
        if nulled and not opposite_cognitive:
            vectors.extend(_null_basis(ch, link)[:nulled])
        while len(vectors) < streams:
            vec = rng.standard_normal(active_dim)
            while np.linalg.norm(vec) == 0.0:
                vec = rng.standard_normal(active_dim)
            vectors.append(vec / np.linalg.norm(vec))
        return _embed(vectors, config.m1 + config.m2, at_end)

    m1, m2, n1, n2 = config.counts
    return (
        message(d1, m1 + m2 * sc.t2, "rx2" if sc.t2 else "h41", n2, sc.r2, at_end=False),
        message(d2, m1 * sc.t1 + m2, "rx1" if sc.t1 else "h32", n1, sc.r1, at_end=True),
    )


def _count_states(monkeypatch, module):
    # Route module._generators through a wrapper that counts its calls and
    # the entropy rows it computes states for.
    generators, counts = module._generators, {"calls": 0, "rows": 0}

    def counted(entropy):
        counts["calls"] += 1
        counts["rows"] += len(entropy)
        return generators(entropy)

    monkeypatch.setattr(module, "_generators", counted)
    return counts


def test_lazy_generator_matches_eager_and_skips_all_nulled_points(monkeypatch):
    built = _count_states(monkeypatch, zf)
    all_nulled = 0
    for counts in ((3, 3, 2, 2), (2, 2, 3, 3)):
        config = AntennaConfig(*counts)
        for s_index, sc in enumerate(CognitionScenario.all_scenarios()):
            ch = sample_channel(config, seed=s_index)
            for d1, d2 in sorted(inner_points(config, sc).points):
                seed = 1000 * s_index + 10 * d1 + d2
                built["rows"] = 0
                scheme = build_scheme(config, sc, d1, d2, ch, seed=seed)
                w1, w2 = _eager_vectors(config, sc, d1, d2, ch, seed)
                assert scheme.w1.shape == w1.shape and scheme.w1.tobytes() == w1.tobytes()
                assert scheme.w2.shape == w2.shape and scheme.w2.tobytes() == w2.tobytes()
                nulled = _nulled(config, sc, d1, d2) == (d1, d2)
                assert built["rows"] == (0 if nulled else 1)
                all_nulled += nulled and d1 + d2 > 0
    assert all_nulled > 0


def test_batched_spectral_norms_equal_the_scalar_ones():
    channels = [sample_channel(AntennaConfig(3, 2, 2, 3), seed=s) for s in range(20)]
    for link in ("rx1", "rx2", "h41"):
        expected = [float(np.linalg.norm(channel._links([ch], link)[0], 2)) for ch in channels]
        _gather(_runs(channels[::3]), ("norm", link))  # a cached subset
        assert _gather(_runs(channels), ("norm", link)).tolist() == expected
        assert [_gather(_runs([ch]), ("norm", link))[0] for ch in channels] == expected


# ---------------------------------------------------- stacked trial kernels


def test_stacked_ddot_keeps_the_per_vector_bits():
    # zf._norms runs one BLAS ddot per row, as vec.dot(vec) does; einsum and
    # (x * x).sum(1) add in another order.  Rows of lengths 1..8 over wide
    # scales, in batches of 1, 3 and 50.
    rng = np.random.default_rng(13)
    for batch in (1, 3, 50):
        for n in range(1, 9):
            for scale in (1e-300, 1e-160, 1e-8, 1.0, 1e8, 1e150):
                rows = scale * rng.standard_normal((batch, n))
                expected = [math.sqrt(float(r.dot(r))) for r in rows]
                assert zf._norms(rows).tolist() == expected
                assert expected == [zf._norm(r.copy()) for r in rows]


def test_the_sweep_computes_no_basis_it_does_not_read(monkeypatch):
    # zf reads a cross link's null basis only when it nulls streams against
    # it, and it nulls none where the antenna counts leave the kernel empty
    # (r = 0), so every basis _null_rows computes over the sweep has rows.
    null_rows, bases = zf._null_rows, []

    def counted(stack):
        computed = null_rows(stack)
        bases.extend(computed)
        return computed

    monkeypatch.setattr(zf, "_null_rows", counted)
    achievability_sweep(max_antennas=3, trials=1, seed=21)
    assert len(bases) == 768
    assert all(len(basis) for basis in bases)


def test_scheme_writes_do_not_grow_with_channels(monkeypatch):
    # Structural: _schemes writes each (point, message, active length, nulled
    # count) group with one _norms call and one np.add.outer, whatever the
    # number of trials in it.
    counts, norms, add = {"norms": 0, "outer": 0}, zf._norms, np.add

    class CountedAdd:
        def __getattr__(self, name):
            return getattr(add, name)

        def __call__(self, *args, **kwargs):
            return add(*args, **kwargs)

        def outer(self, *args, **kwargs):
            counts["outer"] += 1
            return add.outer(*args, **kwargs)

    def counted_norms(rows):
        counts["norms"] += 1
        return norms(rows)

    seen = []
    for trials in (1, 6):
        sampled = {c: channel.sample_channels(AntennaConfig(*c), range(trials))
                   for c in itertools.product((1, 2), repeat=4)}
        with monkeypatch.context() as patch:
            patch.setattr(zf, "_norms", counted_norms)
            patch.setattr(np, "add", CountedAdd())
            for c, channels in sampled.items():
                config = AntennaConfig(*c)
                zf._schemes([(config, sc, point, channels, 10 * s)
                             for s, sc in enumerate(CognitionScenario.all_scenarios())
                             for point in sorted(inner_points(config, sc).points)])
        seen.append(dict(counts))
        counts.update(norms=0, outer=0)
    assert seen[0] == seen[1] and seen[0]["norms"] > 0 and seen[0]["outer"] > 0


class _ZeroFirst:
    # Stands in for an entropy row's generator: its first draw is all zeros,
    # later draws are the row's own.
    def __init__(self, row):
        self.rng, self.first = _vector_rng(*row), True

    def standard_normal(self, size):
        if self.first:
            self.first = False
            return np.zeros(size)
        return self.rng.standard_normal(size)


def test_a_zero_draw_is_drawn_again_as_one_vector_at_a_time(monkeypatch):
    # Every generator's first draw is zero: the batch falls back to drawing
    # vector by vector and gives what one scheme at a time gave.
    monkeypatch.setattr(zf, "_generators", lambda entropy: map(_ZeroFirst, entropy))
    checked = 0
    for counts in ((2, 2, 2, 2), (3, 3, 2, 2), (1, 3, 3, 1)):
        config = AntennaConfig(*counts)
        channels = [sample_channel(config, seed=s) for s in (5, 6)]
        cells = [(sc, p, channels, 10 * s_index)
                 for s_index, sc in enumerate(CognitionScenario.all_scenarios())
                 for p in inner_points(config, sc).points]
        batches = zf._schemes([(config, *cell) for cell in cells])
        items = {point: iter(zip(trials.w1, trials.w2)) for point, trials in batches.items()}
        for sc, (d1, d2), chs, seed in cells:
            for trial, ch in enumerate(chs):
                w1, w2 = next(items[d1, d2])
                rng = _ZeroFirst([seed + trial, d1, d2])
                e1, e2 = _eager_vectors(config, sc, d1, d2, ch, seed + trial, rng=rng)
                assert w1.tobytes() == e1.tobytes() and w2.tobytes() == e2.tobytes()
                checked += 1
    assert checked > 100


def test_sweep_batches_equal_the_per_scheme_vectors_to_the_byte():
    # The batches achievability_sweep(3, 2, seed=7) builds: every cell at
    # counts 1..3, two channels each, seeded as the sweep seeds them.  The
    # sweep's report reads no drawn vector (a cell keeps its passes and the
    # worst residual of nulled columns), so a trial drawn from another
    # trial's seed or point shows here and not there.
    seed, trials, checked = 7, 2, 0
    scenarios = CognitionScenario.all_scenarios()
    for counts in itertools.product((1, 2, 3), repeat=4):
        config = AntennaConfig(*counts)
        cell_seeds = [_derived_seed(seed, counts, s) for s in range(len(scenarios))]
        sampled = channel.sample_channels(
            config, [s + t for s in cell_seeds for t in range(trials)])
        cells = [(sc, point, sampled[i * trials:(i + 1) * trials], cell_seed)
                 for i, (sc, cell_seed) in enumerate(zip(scenarios, cell_seeds))
                 for point in sorted(inner_points(config, sc).points)]
        batches = zf._schemes([(config, *cell) for cell in cells])
        items = {point: iter(zip(batch.w1, batch.w2)) for point, batch in batches.items()}
        for sc, (d1, d2), chs, cell_seed in cells:
            for trial, ch in enumerate(chs):
                w1, w2 = next(items[d1, d2])
                e1, e2 = _eager_vectors(config, sc, d1, d2, ch, cell_seed + trial)
                assert w1.shape == e1.shape and w1.tobytes() == e1.tobytes()
                assert w2.shape == e2.shape and w2.tobytes() == e2.tobytes()
                checked += 1
        assert all(next(rest, None) is None for rest in items.values())
    assert checked == trials * 8796  # the trials of achievability_sweep(3, 2)


def test_a_rank_deficient_cross_link_nulls_r_columns_and_checks_them():
    # rx2 of rank 1 has a 2-dimensional kernel, larger than r1 = 1: the block
    # of (2, 0) takes column 0 from the kernel and draws column 1, and the
    # residual checks column 0, so every nulled column is a checked one.  The
    # batch mixes it with generic channels, whose kernels are 1-dimensional,
    # and equals one scheme at a time.
    config, sc = AntennaConfig(2, 1, 2, 2), scenario(0, 1, 0, 0)
    rng = np.random.default_rng(3)
    deficient = ChannelRealization(rng.standard_normal((2, 2)), rng.standard_normal((2, 1)),
                                   np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([[3.0], [6.0]]),
                                   seed=0)
    channels = [sample_channel(config, seed=1), deficient, sample_channel(config, seed=2)]
    bases = channel._null_rows(channel._links(channels, "rx2"))
    assert [len(basis) for basis in bases] == [1, 2, 1]
    assert _nulled(config, sc, 2, 0) == (1, 0)
    trials = zf._schemes([(config, sc, (2, 0), channels, 4)])[2, 0]
    residuals = zf._null_residuals(trials, *zf._receivers(trials)[:2]).tolist()
    for t, ch in enumerate(channels):
        scheme = build_scheme(config, sc, 2, 0, ch, seed=4 + t)
        assert trials.w1[t].tobytes() == scheme.w1.tobytes()
        assert trials.w2[t].tobytes() == scheme.w2.tobytes()
        basis = _null_basis(ch, "rx2")
        vec = _vector_rng(4 + t, 2, 0).standard_normal(3)
        assert scheme.w1[:, 0].tobytes() == basis[0].tobytes()
        assert scheme.w1[:, 1].tobytes() == (vec / np.linalg.norm(vec)).tobytes()
        rx2 = channel._links([ch], "rx2")[0]
        norm = _gather(_runs([ch]), ("norm", "rx2"))[0]
        expected = zf._norm((rx2 @ scheme.w1)[:, 0].copy()) / norm  # receiver 2's product
        assert residuals[t] == expected == null_residual(scheme, ch)
        assert zf._norm(rx2 @ scheme.w1[:, 1].copy()) / norm > RANK_RTOL  # not nulled


def test_sweep_and_simulate_point_build_no_scheme_record_and_no_hstack(monkeypatch):
    # Structural: trials stay stacked arrays from sampling to verdict.
    from micdof import rates

    counts = {"schemes": 0, "hstack": 0}
    init, hstack = ZfScheme.__init__, np.hstack

    def counted_init(self, *args, **kwargs):
        counts["schemes"] += 1
        init(self, *args, **kwargs)

    def counted_hstack(*args, **kwargs):
        counts["hstack"] += 1
        return hstack(*args, **kwargs)

    monkeypatch.setattr(ZfScheme, "__init__", counted_init)
    monkeypatch.setattr(np, "hstack", counted_hstack)
    config, sc = AntennaConfig(2, 4, 3, 3), scenario(0, 1, 0, 1)
    for trials in (1, 5):
        assert achievability_sweep(max_antennas=2, trials=trials, seed=0).all_passed
        rates.simulate_point(config, sc, 2, 2, trials=trials, seed=3)
    assert counts == {"schemes": 0, "hstack": 0}
    build_scheme(config, sc, 2, 2, sample_channel(config, seed=3), seed=3)  # the counter counts
    assert counts == {"schemes": 1, "hstack": 0}
