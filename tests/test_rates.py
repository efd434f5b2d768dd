import dataclasses

import numpy as np
import pytest

from micdof.channel import (
    AntennaConfig,
    ChannelRealization,
    CognitionScenario,
    _gather,
    _links,
    _runs,
    sample_channel,
    sample_channels,
)
from micdof.cli import SLOPE_TOLERANCE
from micdof.rates import (
    COOP_RHO_GRID,
    RateSweep,
    UndecodableSchemeError,
    _rate_models,
    _sweep,
    achievable_rates,
    bound_term_slopes,
    cooperation_bound_term,
    cooperation_dof_gap_check,
    default_rho_grid,
    estimate_dof_slope,
    fit_loglinear_slope,
    simulate_point,
)
from micdof.regions import dof_formula, inner_points
from micdof.zf import ZfScheme, _stacked, _verdicts, build_scheme, verify_scheme


def scenario(*bits):
    return CognitionScenario.from_bits(bits)


# -------------------------------------------------------------------- rates


def test_zero_power_means_zero_rate():
    config = AntennaConfig(2, 2, 2, 2)
    ch = sample_channel(config, seed=3)
    scheme = build_scheme(config, scenario(0, 1, 0, 1), 1, 1, ch, seed=0)
    assert achievable_rates(scheme, ch, 0.0) == (0.0, 0.0)


def test_single_stream_rate_is_scalar_shannon():
    config = AntennaConfig(1, 1, 1, 1)
    ch = sample_channel(config, seed=4)
    scheme = build_scheme(config, scenario(0, 0, 0, 0), 1, 0, ch, seed=0)
    # effective scalar gain: the one transmit vector through both channels,
    # then projection away from the (empty) interference at rx1
    v = scheme.w1[:1, 0]
    gain = float((ch.h31 @ v).item() ** 2)
    for rho in (1.0, 10.0, 1e4):
        r1, r2 = achievable_rates(scheme, ch, rho)
        assert r2 == 0.0
        assert r1 == pytest.approx(np.log2(1.0 + gain * rho), rel=1e-12)


def test_rates_refuse_undecodable_scheme():
    config = AntennaConfig(2, 2, 2, 2)
    ch = sample_channel(config, seed=6)
    good = build_scheme(config, scenario(1, 1, 0, 0), 2, 2, ch, seed=0)
    rng = np.random.default_rng(1)
    dirty = good.w1.copy()
    for j in range(good.d1):  # W1 is active on all four rows
        dirty[:, j] += 1e-2 * rng.standard_normal(4)
    corrupted = ZfScheme(
        config=good.config, scenario=good.scenario,
        d1=good.d1, d2=good.d2, w1=dirty, w2=good.w2,
    )
    with pytest.raises(UndecodableSchemeError):
        achievable_rates(corrupted, ch, 100.0)


def test_rates_read_only_the_receiver_half_of_the_pass_rule():
    # Rates are defined by the receiver ranks (zf._receivers); the transmit
    # rank and the null residual check how a sweep builds its schemes.  With
    # W2 := W1 the sweep fails the trial on the transmit rank alone, yet both
    # receivers are cognitive and cancel the other message, so r1 keeps
    # every bit.
    config = AntennaConfig(2, 2, 2, 2)
    ch = sample_channel(config, seed=40)
    good = build_scheme(config, scenario(1, 1, 1, 1), 1, 1, ch, seed=40)
    duplicated = dataclasses.replace(good, w2=good.w1)
    assert _verdicts(_stacked([duplicated], [ch])) == [(("transmit rank",), 0.0)]
    r1, _ = achievable_rates(duplicated, ch, 1e4)
    assert r1 == achievable_rates(good, ch, 1e4)[0] == 14.511392095736014


def test_undecodable_trial_is_named_for_replay():
    # One near-collinear draw: [h31 w1, h32 w2] has singular values 2.85 and
    # 8.6e-10, so at receiver 1 signal and interference share a direction:
    # the interference reaches u_1 = 1, the projected signal falls to rank 0.
    config, seed = AntennaConfig(2, 2, 2, 2), 242600675172
    with pytest.raises(UndecodableSchemeError) as raised:
        simulate_point(config, CognitionScenario(), 1, 1, trials=1, seed=seed)
    assert str(raised.value) == (
        "scheme fails the rank rule on the channel of seed 242600675172 at receiver 1 "
        "(interference rank 1 of 1, signal rank 0 of 1); rates are undefined"
    )
    ch = sample_channel(config, seed=seed)
    diag = verify_scheme(build_scheme(config, CognitionScenario(), 1, 1, ch, seed=seed), ch)
    assert (diag.signal_dim_rx1, diag.interference_dim_rx1) == (0, 1)
    assert not diag.decodable_w1


def _high_snr_gap_holds(totals, models, rho, streams, k_shift=0):
    # Per channel: the sum rate minus streams * log2(rho) is the offset
    # -sum log2(k / sigma^2) plus a remainder sum log2(1 + k / (rho sigma^2))
    # in [0, sum k / (rho sigma^2 ln 2)], with the stream's k and squared
    # projected singular value sigma^2 (``_rate_models``); k_shift moves k.
    offset = remainder_max = 0.0
    for k, gains in models:
        k = (k + k_shift)[:, None].astype(float)
        offset = offset - np.log2(k / gains).sum(axis=1)
        remainder_max = remainder_max + (k / (rho * gains * np.log(2))).sum(axis=1)
    remainder = totals - streams * np.log2(rho) - offset
    return (remainder >= -1e-9) & (remainder <= remainder_max + 1e-9)


def test_sum_rate_near_high_snr_prediction():
    # At rho = 1e6 the sum rate of d1 + d2 streams is (d1 + d2) log2(rho)
    # minus a bounded per-channel offset, on every channel of 200: the gap
    # is -sum log2(k / sigma^2) up to a remainder below sum k / (rho sigma^2
    # ln 2).  Negative control: with each k off by one the check fails on
    # all but the few channels whose tiny sigma^2 widens the band (13 and 5
    # of 3,000 for the last two points at seeds 1000..3999).
    rho = 1e6
    for counts, bits, (d1, d2) in (((2, 2, 2, 2), (0, 1, 0, 1), (1, 1)),
                                   ((2, 3, 3, 2), (0, 1, 0, 0), (2, 1)),
                                   ((3, 3, 2, 2), (1, 1, 0, 0), (2, 2))):
        config, sc = AntennaConfig(*counts), scenario(*bits)
        channels = sample_channels(config, range(200))
        schemes = [build_scheme(config, sc, d1, d2, ch, seed=s) for s, ch in enumerate(channels)]
        totals = np.array([sum(achievable_rates(x, ch, rho)) for x, ch in zip(schemes, channels)])
        models = _rate_models(_stacked(schemes, channels))
        assert [gains.shape for _, gains in models] == [(200, d1), (200, d2)]
        assert _high_snr_gap_holds(totals, models, rho, d1 + d2).all()
        for shift in (1, -1):  # every k here is 2 or more
            assert _high_snr_gap_holds(totals, models, rho, d1 + d2, shift).mean() <= 0.05


def test_rates_monotone_in_power():
    config = AntennaConfig(2, 3, 3, 2)
    ch = sample_channel(config, seed=8)
    scheme = build_scheme(config, scenario(0, 1, 0, 0), 2, 1, ch, seed=0)
    sweep = estimate_dof_slope(scheme, ch, default_rho_grid(1e4, 1e10, 7))
    sums = sweep.sum_rates
    assert all(b >= a for a, b in zip(sums, sums[1:]))


def _slogdet_rates(scheme, ch, rho):
    # Reference: project onto an orthonormal basis of the complement of the
    # received interference, then log det(I + G P G^T) with per-stream powers
    # P from an equal split of each node's budget.
    sc = scheme.scenario
    node1 = scheme.d1 + (scheme.d2 if sc.t1 else 0)
    node2 = (scheme.d1 if sc.t2 else 0) + scheme.d2
    share1 = min((rho / n for n, used in ((node1, True), (node2, sc.t2)) if used and n),
                 default=0.0)
    share2 = min((rho / n for n, used in ((node1, sc.t1), (node2, True)) if used and n),
                 default=0.0)
    w1, w2 = scheme.w1, scheme.w2
    rates = []
    for link, signal, intf, share in (
        ("rx1", w1, None if sc.r1 else w2, share1),
        ("rx2", w2, None if sc.r2 else w1, share2),
    ):
        full, norm = _links([ch], link)[0], _gather(_runs([ch]), ("norm", link))[0]
        effective = full @ signal
        if intf is not None and intf.shape[1] > 0:
            u, sv, _ = np.linalg.svd(full @ intf, full_matrices=True)
            basis = u[:, int(np.count_nonzero(sv > 1e-9 * norm)):]
            effective = basis.T @ effective
        gram = share * effective @ effective.T
        rates.append(np.linalg.slogdet(np.eye(gram.shape[0]) + gram)[1] / np.log(2.0))
    return tuple(rates)


@pytest.mark.parametrize("counts", [(2, 3, 3, 2), (3, 3, 3, 3)])
def test_rates_match_slogdet_reference(counts):
    config = AntennaConfig(*counts)
    grid = default_rho_grid()
    for sc in CognitionScenario.all_scenarios():
        point = max(inner_points(config, sc).points, key=lambda p: (p[0] + p[1], p))
        for seed in (0, 1, 2):
            ch = sample_channel(config, seed=seed)
            scheme = build_scheme(config, sc, *point, ch, seed=seed)
            sweep = estimate_dof_slope(scheme, ch, grid)
            for k, rho in enumerate(grid):
                got = achievable_rates(scheme, ch, rho)
                assert got == (sweep.r1_rates[k], sweep.r2_rates[k])
                for new, old in zip(got, _slogdet_rates(scheme, ch, rho)):
                    assert new == pytest.approx(old, rel=1e-7, abs=1e-12)


def test_slope_reads_one_receiver_model(monkeypatch):
    # Operation counts: the whole rate curve costs the SVDs of one rate point
    # and no log-determinant.
    config = AntennaConfig(3, 3, 3, 3)
    ch = sample_channel(config, seed=5)
    scheme = build_scheme(config, scenario(0, 0, 0, 0), 2, 1, ch, seed=5)
    achievable_rates(scheme, ch, 1e4)  # fill the channel's cached norms
    counts = {"svd": 0, "slogdet": 0}
    svd, slogdet = np.linalg.svd, np.linalg.slogdet

    def counted_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counted_slogdet(*args, **kwargs):
        counts["slogdet"] += 1
        return slogdet(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "slogdet", counted_slogdet)
    achievable_rates(scheme, ch, 1e4)
    one_point = dict(counts)
    counts.update(svd=0, slogdet=0)
    estimate_dof_slope(scheme, ch, default_rho_grid(points=7))
    assert one_point["svd"] > 0
    assert counts == {"svd": one_point["svd"], "slogdet": 0}


# Max-sum points that the rate_mc benchmark checks, plus the single stream.
RATE_CASES = [
    ((1, 1, 1, 1), (0, 0, 0, 0), (1, 0)),
    ((1, 3, 3, 1), (0, 1, 0, 0), (3, 0)),
    ((2, 2, 2, 2), (0, 0, 0, 0), (1, 1)),
    ((3, 1, 2, 4), (0, 1, 1, 0), (2, 1)),
    ((4, 4, 4, 4), (1, 1, 0, 0), (4, 4)),
]


def _batch(counts, bits, point, trials, seed):
    # The channels and schemes simulate_point draws for these arguments.
    config = AntennaConfig(*counts)
    channels = [sample_channel(config, seed=seed + t) for t in range(trials)]
    schemes = [build_scheme(config, scenario(*bits), *point, ch, seed=seed + t)
               for t, ch in enumerate(channels)]
    return schemes, channels


def _loop_mean_rates(models, grid, trials):
    # Reference: one rate per (trial, rho, message) in scalar calls, summed
    # into running accumulators, as the per-rho rate loop computed them.
    acc = [np.zeros(len(grid)), np.zeros(len(grid))]
    for t in range(trials):
        for total, (k, gains) in zip(acc, models):
            total += np.array([float(np.sum(np.log2(1.0 + (rho / int(k[t])) * gains[t])))
                               for rho in grid])
    return [total / trials for total in acc]


def test_rate_arrays_match_the_per_rho_loop():
    grid = default_rho_grid()
    channels_seen = 0
    for counts, bits, point in RATE_CASES:
        schemes, channels = _batch(counts, bits, point, trials=12, seed=40)
        sweep = simulate_point(AntennaConfig(*counts), scenario(*bits), *point,
                               trials=12, seed=40, rho_grid=grid)
        r1, r2 = _loop_mean_rates(_rate_models(_stacked(schemes, channels)), grid, 12)
        assert np.array(sweep.r1_rates).tobytes() == r1.tobytes()
        assert np.array(sweep.r2_rates).tobytes() == r2.tobytes()
        assert (sweep.slope, sweep.intercept) == fit_loglinear_slope(np.array(grid), r1 + r2)
        for scheme, ch in zip(schemes[:3], channels):
            alone = estimate_dof_slope(scheme, ch, grid)
            one_r1, one_r2 = _loop_mean_rates(_rate_models(_stacked([scheme], [ch])), grid, 1)
            assert np.array(alone.r1_rates).tobytes() == one_r1.tobytes()
            assert np.array(alone.r2_rates).tobytes() == one_r2.tobytes()
        channels_seen += len(channels)
    assert channels_seen >= 50


def _count_log2(monkeypatch):
    counts = [0]
    log2 = np.log2

    def counted(*args, **kwargs):
        counts[0] += 1
        return log2(*args, **kwargs)

    monkeypatch.setattr(np, "log2", counted)
    return counts


def test_log2_calls_do_not_grow_with_trials_or_grid(monkeypatch):
    # Operation counts: one log2 call per message for the whole rate array,
    # whatever the number of trials T and grid points G.
    config, sc = AntennaConfig(2, 2, 2, 2), scenario(0, 0, 0, 0)
    counts = _count_log2(monkeypatch)
    per_shape = []
    for trials, points in ((2, 3), (20, 7)):
        counts[0] = 0
        simulate_point(config, sc, 1, 1, trials=trials, seed=0,
                       rho_grid=default_rho_grid(points=points))
        per_shape.append(counts[0])
    assert per_shape[0] > 0
    assert per_shape[0] == per_shape[1]


def test_slope_error_is_the_slope_of_the_mean_remainder():
    # Each stream's rate is log2(rho) + log2(sigma^2 / k) + log2(1 + k / (rho
    # sigma^2)), and the least-squares slope is linear in the data: the fitted
    # slope minus d1 + d2 is the fitted slope of the mean remainder.
    grid = default_rho_grid()
    rho = np.array(grid)[None, :, None]
    for counts, bits, point in RATE_CASES:
        for seed in range(30):
            schemes, channels = _batch(counts, bits, point, trials=3, seed=100 * seed)
            sweep = simulate_point(AntennaConfig(*counts), scenario(*bits), *point,
                                   trials=3, seed=100 * seed, rho_grid=grid)
            remainder = sum(
                np.log2(1.0 + k[:, None, None] / (rho * gains[:, None, :])).sum(axis=2)
                for k, gains in _rate_models(_stacked(schemes, channels))
            ).mean(axis=0)
            remainder_slope, _ = fit_loglinear_slope(np.array(grid), remainder)
            assert abs(sweep.slope - sum(point) - remainder_slope) <= 1e-12


# -------------------------------------------------------------- regression


def test_regression_recovers_exact_line():
    grid = np.array(default_rho_grid(1e4, 1e10, 7))
    rates = 3.0 * np.log2(grid) + 1.25
    slope, intercept = fit_loglinear_slope(grid, rates)
    assert slope == pytest.approx(3.0, rel=1e-12)
    assert intercept == pytest.approx(1.25, rel=1e-9)


def test_rate_sweep_validates_grid():
    with pytest.raises(ValueError, match="3 points"):
        RateSweep(rho_grid=(1.0, 2.0), r1_rates=(0, 0), r2_rates=(0, 0),
                  slope=0.0, intercept=0.0)
    with pytest.raises(ValueError, match="increasing"):
        RateSweep(rho_grid=(1.0, 1.0, 2.0), r1_rates=(0, 0, 0),
                  r2_rates=(0, 0, 0), slope=0.0, intercept=0.0)
    with pytest.raises(ValueError, match="nondecreasing"):
        RateSweep(rho_grid=(1.0, 2.0, 4.0), r1_rates=(1.0, 0.5, 2.0),
                  r2_rates=(0.0, 0.0, 0.0), slope=0.0, intercept=0.0)


def test_invalid_powers_are_rejected():
    config, sc = AntennaConfig(2, 2, 2, 2), scenario(0, 0, 0, 0)
    ch = sample_channel(config, seed=0, extended=True)
    with pytest.raises(ValueError, match="rho"):
        achievable_rates(build_scheme(config, sc, 1, 1, ch, seed=0), ch, float("nan"))
    with pytest.raises(ValueError, match="rho"):
        cooperation_bound_term(ch, float("nan"))
    with pytest.raises(ValueError, match="increasing"):
        bound_term_slopes(ch, (1e6, 1e6, 1e8))
    with pytest.raises(ValueError, match="rho"):
        simulate_point(config, sc, 1, 1, trials=1, rho_grid=(1e5, float("nan"), 1e9))
    with pytest.raises(ValueError, match="rho"):
        RateSweep(rho_grid=(float("nan"),) * 3, r1_rates=(0, 0, 0), r2_rates=(0, 0, 0),
                  slope=0.0, intercept=0.0)
    for rho_min in (-5.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rho"):
            default_rho_grid(rho_min, 1e10)


def test_estimate_grid_bounds():
    config = AntennaConfig(1, 1, 1, 1)
    ch = sample_channel(config, seed=4)
    scheme = build_scheme(config, scenario(0, 0, 0, 0), 1, 0, ch, seed=0)
    with pytest.raises(ValueError, match="within"):
        estimate_dof_slope(scheme, ch, [1.0, 10.0, 100.0])


@pytest.mark.parametrize("counts,bits,point,target", [
    ((2, 2, 2, 2), (0, 0, 0, 0), (1, 1), 2.0),
    ((2, 2, 2, 2), (1, 1, 0, 0), (2, 2), 4.0),
])
def test_monte_carlo_slope_hits_dof(counts, bits, point, target):
    config = AntennaConfig(*counts)
    sweep = simulate_point(config, scenario(*bits), *point, trials=10, seed=0,
                           rho_grid=default_rho_grid(1e4, 1e9, 7))
    assert sweep.slope == pytest.approx(target, rel=0.03)


def test_slope_check_catches_a_weak_but_decodable_channel():
    # Negative control: scaling one channel's receiver-1 links by 1e-4 keeps
    # its scheme decodable (ranks are relative to the channel norm) but pulls
    # the 10-trial slope past the CLI's 3% tolerance.
    config, sc = AntennaConfig(2, 2, 2, 2), scenario(0, 0, 0, 0)
    channels = sample_channels(config, range(10))
    ch = channels[0]
    weak = ChannelRealization(ch.h31 * 1e-4, ch.h32 * 1e-4, ch.h41, ch.h42, seed=ch.seed)

    def miss(batch):
        schemes = [build_scheme(config, sc, 1, 1, c, seed=t) for t, c in enumerate(batch)]
        sweep = _sweep(_stacked(schemes, batch), default_rho_grid())
        return abs(sweep.slope - 2.0) / 2.0, schemes[0]

    assert miss(channels)[0] <= SLOPE_TOLERANCE
    weak_miss, weak_scheme = miss([weak] + channels[1:])
    assert weak_miss > SLOPE_TOLERANCE
    assert verify_scheme(weak_scheme, weak).all_decodable


def test_slope_never_beats_converse():
    config = AntennaConfig(2, 3, 3, 2)
    sc = scenario(0, 1, 0, 0)
    sweep = simulate_point(config, sc, 2, 1, trials=5, seed=1)
    assert sweep.slope <= dof_formula(config, sc) + 0.1


# -------------------------------------------------------- cooperation bound


def test_bound_term_zero_direct_row():
    # A silent direct antenna contributes nothing at any power.
    h11 = np.array([[0.0, 0.0], [1.0, 2.0]])
    h41 = np.array([[1.0, 1.0], [1.0, -1.0]])
    ident = np.eye(2)
    links = {(i, j): ident for i in range(1, 5) for j in range(1, 5)}
    links[(1, 1)] = h11
    links[(4, 1)] = h41
    ch = ChannelRealization(h31=ident, h32=ident, h41=h41, h42=ident,
                            seed=0, extended_links=links)
    for rho in (1.0, 1e6, 1e10):
        probe = cooperation_bound_term(ch, rho)
        assert probe.per_antenna_terms[0] == 0.0
        assert probe.per_antenna_terms[1] > 0.0


def test_bound_term_pairs_rows_of_h11_and_h41():
    # n2 = 3 > m1 = 2: term j uses row j of h41, not its column j or row 2.
    # Squared norms: h11 rows 2, 4 (columns 5, 1); h41 rows 1, 9 (columns 26, 34).
    h11 = np.array([[1.0, 1.0], [2.0, 0.0]])
    h41 = np.array([[1.0, 0.0], [0.0, 3.0], [5.0, 5.0]])
    counts = (2, 2, 2, 3)  # m1, m2, n1, n2: each link (i, j) is counts_i x counts_j
    links = {(i, j): np.eye(counts[i - 1], counts[j - 1])
             for i in range(1, 5) for j in range(1, 5)}
    links[(1, 1)] = h11
    links[(4, 1)] = h41
    ch = ChannelRealization(h31=links[(3, 1)], h32=links[(3, 2)], h41=h41, h42=links[(4, 2)],
                            seed=0, extended_links=links)
    rho = 10.0

    def term(direct, quieting):
        return np.log2(1.0 + direct * rho / (1.0 + quieting * rho))

    got = cooperation_bound_term(ch, rho).per_antenna_terms
    assert got == pytest.approx([term(2.0, 1.0), term(4.0, 9.0)], rel=1e-12)
    assert got[0] != pytest.approx(term(2.0, 26.0), rel=1e-3)
    assert got[1] != pytest.approx(term(4.0, 34.0), rel=1e-3)


def test_bound_term_equal_rows_saturate_at_one_bit():
    row = np.array([[3.0, 4.0]])
    stack = np.vstack([row, row])
    ident = np.eye(2)
    links = {(i, j): ident for i in range(1, 5) for j in range(1, 5)}
    links[(1, 1)] = stack
    links[(4, 1)] = stack
    ch = ChannelRealization(h31=ident, h32=ident, h41=stack, h42=ident,
                            seed=0, extended_links=links)
    probe = cooperation_bound_term(ch, 1e10)
    assert probe.per_antenna_terms[0] == pytest.approx(1.0, abs=1e-3)


def test_bound_term_slopes_vanish():
    ch = sample_channel(AntennaConfig(2, 2, 2, 2), seed=0, extended=True)
    assert max(bound_term_slopes(ch, (1e6, 1e8, 1e10))) < 0.01


def _loop_bound_terms(ch, rho):
    # Reference: the terms one row pair at a time, in scalar calls.
    h11, h41 = ch.extended_links[(1, 1)], ch.h41
    return [
        float(np.log2(1.0 + float(np.dot(h11[j], h11[j])) * rho
                      / (1.0 + float(np.dot(h41[j], h41[j])) * rho)))
        for j in range(h11.shape[1])
    ]


def _loop_slopes(ch, grid):
    # Reference: the per-term, per-interval double loop.
    terms = [_loop_bound_terms(ch, rho) for rho in grid]
    slopes = []
    for j in range(len(terms[0])):
        worst = 0.0
        for k in range(len(grid) - 1):
            dx = np.log2(grid[k + 1]) - np.log2(grid[k])
            worst = max(worst, abs((terms[k + 1][j] - terms[k][j]) / dx))
        slopes.append(worst)
    return slopes


def test_bound_term_arrays_match_the_per_row_loop():
    grids = (COOP_RHO_GRID, (1e2, 1e4, 1e6, 1e8, 1e10))
    channels = [
        sample_channel(AntennaConfig(*counts), seed=seed, extended=True)
        for counts in ((3, 1, 2, 4), (4, 4, 4, 4), (2, 2, 2, 2), (1, 3, 3, 1), (1, 2, 4, 4))
        for seed in range(10)
    ]
    assert len(channels) >= 50
    for ch in channels:
        for rho in (1.0, 1e6, 1e10):
            got = cooperation_bound_term(ch, rho).per_antenna_terms
            assert np.array(got).tobytes() == np.array(_loop_bound_terms(ch, rho)).tobytes()
        for grid in grids:
            got = bound_term_slopes(ch, grid)
            assert np.array(got).tobytes() == np.array(_loop_slopes(ch, grid)).tobytes()


def test_gap_check_slope_is_the_worst_per_channel_loop_slope():
    # The check judges all its trials as one array; its worst slope is the
    # largest of the per-channel reference loops, to the bit.
    for counts in ((3, 1, 2, 4), (4, 4, 4, 4), (2, 2, 2, 2)):
        config = AntennaConfig(*counts)
        for seed in range(10):
            report = cooperation_dof_gap_check(config, trials=10, seed=seed)
            channels = sample_channels(config, range(seed, seed + 10), extended=True)
            expected = max(max(_loop_slopes(ch, COOP_RHO_GRID)) for ch in channels)
            assert np.float64(report.max_term_slope).tobytes() == np.float64(expected).tobytes()


def test_bound_term_slope_log2_calls_do_not_grow_with_grid(monkeypatch):
    ch = sample_channel(AntennaConfig(3, 3, 3, 3), seed=1, extended=True)
    counts = _count_log2(monkeypatch)
    per_grid = []
    for grid in ((1e6, 1e8, 1e10), (1e2, 1e4, 1e6, 1e8, 1e10)):
        counts[0] = 0
        bound_term_slopes(ch, grid)
        per_grid.append(counts[0])
    assert per_grid[0] > 0
    assert per_grid[0] == per_grid[1]


def test_bound_term_without_quieting_grows_one_bit_per_doubling():
    # Negative control for the saturation check: with h41 = 0 the term is
    # log2(1 + ||h11_j||^2 rho), whose slope in log2(rho) tends to 1.
    sampled = sample_channel(AntennaConfig(2, 2, 2, 2), seed=0, extended=True)
    links = dict(sampled.extended_links)
    links[(4, 1)] = np.zeros_like(sampled.h41)
    ch = ChannelRealization(h31=sampled.h31, h32=sampled.h32, h41=links[(4, 1)],
                            h42=sampled.h42, seed=0, extended_links=links)
    slopes = bound_term_slopes(ch)
    assert slopes == pytest.approx([1.0, 1.0], abs=1e-3)
    assert max(slopes) >= 0.01  # the check's threshold: it would fail here


def test_bound_term_decreases_with_quieting_gain():
    # A louder channel toward node 4 can only shrink the term.
    def term_for(quieting_row):
        ident = np.eye(1)
        links = {(i, j): ident for i in range(1, 5) for j in range(1, 5)}
        links[(1, 1)] = np.array([[2.0]])
        h41 = np.array([quieting_row])
        links[(4, 1)] = h41
        ch = ChannelRealization(h31=ident, h32=ident, h41=h41, h42=ident,
                                seed=0, extended_links=links)
        return cooperation_bound_term(ch, 1e4).per_antenna_terms[0]

    terms = [term_for([g]) for g in (0.5, 1.0, 2.0, 4.0)]
    assert all(b < a for a, b in zip(terms, terms[1:]))


def test_a_hand_built_extended_channel_must_agree_with_its_fields():
    # Outside sampling, every node pair needs a link of the counts' shape, and
    # the four interference links must equal h31..h42, so the probe cannot
    # read h11 from one channel and h41 from another.
    sampled = sample_channel(AntennaConfig(2, 2, 2, 2), seed=0, extended=True)
    fields = {name: getattr(sampled, name) for name in ("h31", "h32", "h41", "h42")}
    links = sampled.extended_links
    for bad, match in (({**links, (4, 1): np.zeros((2, 2))}, "differs from h41"),
                       ({**links, (4, 4): np.zeros((3, 3))}, r"\(2, 2\) matrix"),
                       ({p: m for p, m in links.items() if p != (2, 3)}, r"\(2, 2\) matrix")):
        with pytest.raises(ValueError, match=match):
            ChannelRealization(**fields, seed=0, extended_links=bad)
    # The other four hand-built fixtures' channels are accepted.
    silent = {**links, (4, 1): np.zeros((2, 2))}
    ChannelRealization(**{**fields, "h41": silent[(4, 1)]}, seed=0, extended_links=silent)
    rows = np.array([[3.0, 4.0], [3.0, 4.0]])
    for h11, h41 in ((np.array([[0.0, 0.0], [1.0, 2.0]]), np.array([[1.0, 1.0], [1.0, -1.0]])),
                     (rows, rows), (np.array([[2.0]]), np.array([[0.5]]))):
        ident = np.eye(len(h11))
        links = {(i, j): ident for i in range(1, 5) for j in range(1, 5)}
        links[(1, 1)], links[(4, 1)] = h11, h41
        ChannelRealization(h31=ident, h32=ident, h41=h41, h42=ident, seed=0, extended_links=links)


def test_bound_term_requires_extended_links():
    ch = sample_channel(AntennaConfig(2, 2, 2, 2), seed=0)
    with pytest.raises(ValueError, match="extended"):
        cooperation_bound_term(ch, 1e6)


def test_bound_term_requires_n2_at_least_m1():
    # m1 = 3 > n2 = 2: h41 has too few rows to pair with each row of h11.
    ch = sample_channel(AntennaConfig(3, 1, 1, 2), seed=0, extended=True)
    with pytest.raises(ValueError, match="n2 >= m1"):
        cooperation_bound_term(ch, 1e6)


def test_gap_check_report():
    report = cooperation_dof_gap_check(AntennaConfig(2, 2, 2, 2), trials=10, seed=0)
    assert report.passed
    assert report.max_term_slope < 0.01
    assert report.dof == 2 and report.upper_bounds == (2, 2)


def test_gap_check_single_stream_channel():
    report = cooperation_dof_gap_check(AntennaConfig(1, 3, 3, 1), trials=10, seed=0)
    assert report.dof == 1
    assert max(report.upper_bounds[0], 0) == 1
    assert report.dof <= report.upper_bounds[0]


def test_gap_check_rejects_wide_transmitter():
    with pytest.raises(ValueError, match="n2 >= m1"):
        cooperation_dof_gap_check(AntennaConfig(3, 1, 1, 2), trials=1)


@pytest.mark.parametrize("trials", [2.0, np.float64(2.0), True], ids=["float", "numpy float", "bool"])
def test_trial_counts_follow_the_integer_rule(trials):
    config, refused = AntennaConfig(2, 2, 2, 2), f"trials must be an integer, got {trials!r}"
    with pytest.raises(ValueError) as error:
        simulate_point(config, CognitionScenario(), 1, 1, trials=trials)
    assert str(error.value) == refused
    with pytest.raises(ValueError) as error:
        cooperation_dof_gap_check(config, trials=trials)
    assert str(error.value) == refused


@pytest.mark.parametrize("seed", [1.5, 2.0, True], ids=["fraction", "float", "bool"])
def test_rate_seeds_follow_the_integer_rule(seed):
    config, refused = AntennaConfig(2, 2, 2, 2), f"seed must be an integer, got {seed!r}"
    with pytest.raises(ValueError) as error:
        simulate_point(config, CognitionScenario(), 1, 1, trials=2, seed=seed)
    assert str(error.value) == refused
    with pytest.raises(ValueError) as error:
        cooperation_dof_gap_check(config, trials=2, seed=seed)
    assert str(error.value) == refused


def test_numpy_integer_seeds_run_as_ints():
    config, sc = AntennaConfig(2, 2, 2, 2), CognitionScenario()
    sweep = simulate_point(config, sc, 1, 1, trials=2, seed=np.int64(4))
    assert sweep.to_csv() == simulate_point(config, sc, 1, 1, trials=2, seed=4).to_csv()
    report = cooperation_dof_gap_check(config, trials=2, seed=np.int64(4))
    assert report == cooperation_dof_gap_check(config, trials=2, seed=4)


@pytest.mark.parametrize("points", [7.0, True, np.float64(7.0)],
                         ids=["float", "bool", "numpy float"])
def test_grid_points_follow_the_integer_rule(points):
    with pytest.raises(ValueError) as error:
        default_rho_grid(1e4, 1e10, points)
    assert str(error.value) == f"points must be an integer, got {points!r}"


def test_a_numpy_integer_point_count_gives_the_plain_grid():
    assert default_rho_grid(1e4, 1e10, np.int64(7)) == default_rho_grid(1e4, 1e10, 7)
    with pytest.raises(ValueError) as error:
        default_rho_grid(points=np.int64(2))
    assert str(error.value) == "grid needs at least 3 points"


def test_numpy_integer_trial_counts_run_as_ints():
    config, sc = AntennaConfig(2, 2, 2, 2), CognitionScenario()
    sweep = simulate_point(config, sc, 1, 1, trials=np.int64(2), seed=4)
    assert sweep == simulate_point(config, sc, 1, 1, trials=2, seed=4)
    report = cooperation_dof_gap_check(config, trials=np.int64(2), seed=4)
    assert type(report.trials) is int
    assert report == cooperation_dof_gap_check(config, trials=2, seed=4)
