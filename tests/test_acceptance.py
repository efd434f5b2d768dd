"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole test suite takes under a minute on a 2-core x86-64 machine,
dominated by the achievability sweep of criterion 6.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from micdof.channel import AntennaConfig, CognitionScenario, sample_channel
from micdof.cli import main
from micdof.rates import _term_slopes, default_rho_grid, simulate_point
from micdof.regions import (
    dof_cooperation,
    dof_cooperation_upper_bounds,
    dof_formula,
    inner_points,
    inner_region,
    lemma5_holds,
    outer_region,
    scenario_ordering_holds,
)
from micdof.zf import achievability_sweep, build_scheme

SWEEP_RANGE = range(1, 5)  # antenna counts 1..4
ALL_SCENARIOS = CognitionScenario.all_scenarios()


def _configs():
    for counts in itertools.product(SWEEP_RANGE, repeat=4):
        yield AntennaConfig(*counts)


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def test_criterion_1_region_equality():
    cases = 0
    mismatches = []
    for config in _configs():
        for scenario in ALL_SCENARIOS:
            cases += 1
            if inner_region(config, scenario) != outer_region(config, scenario):
                mismatches.append((config, scenario))
    _report(
        1,
        not mismatches,
        f"inner = outer for {cases} config/scenario cases"
        + (f"; first mismatch {mismatches[0]}" if mismatches else ""),
    )


def test_criterion_2_formula_matches_lp():
    cases = 0
    mismatches = []
    for config in _configs():
        for scenario in ALL_SCENARIOS:
            cases += 1
            closed_form = dof_formula(config, scenario)
            corner_sum = max(v.d1 + v.d2 for v in outer_region(config, scenario).vertices)
            if closed_form != corner_sum:
                mismatches.append((config, scenario, closed_form, corner_sum))
    family_ok = all(
        dof_formula(AntennaConfig(1, n, n, 1), CognitionScenario()) == 1
        for n in range(1, 6)
    )
    _report(
        2,
        not mismatches and family_ok,
        f"closed form equals the largest corner sum on {cases} cases; "
        f"(1,n,n,1) family pins DOF 1 for n=1..5",
    )


def test_criterion_3_clipped_sum_identity():
    counterexamples = [
        (c, d) for c in range(9) for d in range(9) if not lemma5_holds(c, d, box=20)
    ]
    _report(
        3,
        not counterexamples,
        f"clipped-sum set identity holds for all 81 (c, d) pairs, box 20"
        + (f"; counterexamples {counterexamples}" if counterexamples else ""),
    )


def test_criterion_4_cognition_ordering():
    failures = [config for config in _configs() if not scenario_ordering_holds(config)]
    _report(
        4,
        not failures,
        "DOF chain and region-inclusion chain hold for all 256 configs"
        + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_5_cooperation_ceiling():
    failures = []
    for config in _configs():
        eta = dof_cooperation(config)
        achievable = inner_points(config, CognitionScenario()).points
        if eta != max(d1 + d2 for d1, d2 in achievable):
            failures.append((config, "ceiling"))
        if eta > min(dof_cooperation_upper_bounds(config)):
            failures.append((config, "bound"))
    _report(
        5,
        not failures,
        "cooperation DOF equals the largest achievable no-cognition sum and "
        "respects its upper bounds on all 256 configs",
    )


def test_criterion_6_achievability_sweep():
    report = achievability_sweep(max_antennas=3, trials=50, seed=2024)
    digest = hashlib.sha256(json.dumps(report.to_json_list()).encode()).hexdigest()
    detail = (
        f"{report.total_passes}/{report.total_trials} scheme verifications "
        f"passed over {len(report.cells)} (config, scenario, point) cells, "
        f"worst null residual {report.worst_null_residual:.2e}, JSON sha256 {digest[:8]}"
    )
    _report(
        6,
        report.all_passed and report.worst_null_residual <= 1e-9
        and digest == "14ea554cd949fb37dedc2ee617237c857d8525c4e0d52ed104db3eac89cd84c4",
        detail,
    )


@pytest.mark.parametrize("counts,bits,point,target", [
    ((2, 2, 2, 2), (0, 0, 0, 0), (1, 1), 2.0),
    ((2, 2, 2, 2), (1, 1, 0, 0), (2, 2), 4.0),
    ((1, 3, 3, 1), (0, 1, 0, 0), (2, 1), 3.0),
])
def test_criterion_7_empirical_dof_slopes(counts, bits, point, target):
    config = AntennaConfig(*counts)
    scenario = CognitionScenario.from_bits(bits)
    sweep = simulate_point(
        config, scenario, *point, trials=10, seed=0,
        rho_grid=default_rho_grid(1e4, 1e9, 7),
    )
    relative = abs(sweep.slope - target) / target
    _report(
        7,
        relative <= 0.03,
        f"slope {sweep.slope:.4f} vs target {target:g} for {config} "
        f"{scenario} at {point} (relative error {relative:.2%})",
    )


def test_criterion_8_cooperation_bound_saturates():
    config = AntennaConfig(2, 2, 2, 2)
    worst = 0.0
    for seed in range(10):
        channel = sample_channel(config, seed=seed, extended=True)
        worst = max(worst, float(_term_slopes([channel], (1e6, 1e8, 1e10)).max()))
    _report(
        8,
        worst < 0.01,
        f"per-antenna genie-bound terms are flat over rho in [1e6, 1e10]; "
        f"worst finite-difference slope {worst:.2e}",
    )


def _swap_users(config, scenario):
    # Relabel user 1 as user 2 and vice versa.
    return (AntennaConfig(m1=config.m2, m2=config.m1, n1=config.n2, n2=config.n1),
            CognitionScenario(t1=scenario.t2, t2=scenario.t1, r1=scenario.r2, r2=scenario.r1))


def test_criterion_9a_user_swap_invariance():
    rng = np.random.default_rng(7)
    failures = 0
    for _ in range(500):
        config = AntennaConfig(*(int(v) for v in rng.integers(1, 7, size=4)))
        scenario = CognitionScenario.from_bits([int(b) for b in rng.integers(0, 2, size=4)])
        if dof_formula(config, scenario) != dof_formula(*_swap_users(config, scenario)):
            failures += 1
    _report(
        9,
        failures == 0,
        f"user-swap invariance of the closed form on 500 random cases "
        f"({failures} failures)",
    )


def test_criterion_9b_seeded_outputs_are_byte_identical(capsys, tmp_path):
    config = AntennaConfig(2, 3, 3, 2)
    scenario = CognitionScenario.from_bits([0, 1, 0, 0])

    ch_a = sample_channel(config, seed=99, extended=True)
    ch_b = sample_channel(config, seed=99, extended=True)
    channels_equal = all(
        ch_a.extended_links[p].tobytes() == ch_b.extended_links[p].tobytes()
        for p in ch_a.extended_links
    )

    scheme_a = build_scheme(config, scenario, 2, 1, ch_a, seed=5)
    scheme_b = build_scheme(config, scenario, 2, 1, ch_b, seed=5)
    schemes_equal = all(
        u.tobytes() == v.tobytes()
        for u, v in ((scheme_a.w1, scheme_b.w1), (scheme_a.w2, scheme_b.w2))
    )

    argv = ["region", "--config", "2,3,3,2", "--scenario", "0,1,0,0",
            "--format", "json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out

    csv_paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in csv_paths:
        main(["simulate", "--config", "2,2,2,2", "--scenario", "0,0,0,0",
              "--point", "1,1", "--trials", "3", "--seed", "11",
              "--out", str(path)])
    capsys.readouterr()
    csv_equal = csv_paths[0].read_bytes() == csv_paths[1].read_bytes()
    json_equal = json.loads(first) == json.loads(second) and first == second

    _report(
        9,
        channels_equal and schemes_equal and json_equal and csv_equal,
        "seeded channels, schemes, region JSON, and rate CSV are "
        "byte-identical across reruns",
    )


# sha256 of seeded outputs as recorded with numpy 2.4 and its bundled
# OpenBLAS on x86-64: a rerun in one process (9b) cannot see a change that
# moves every run alike, these can.  A change that means to move a seeded
# output records its new hash here and in CHANGES.md.
SEEDED_SHA256 = {
    "achievability_sweep(3, 1, seed=21) JSON":
        "7d2411829608e9bd5a4e81a76eed93db6a8de3e87c19ae8c4ed20bff43f73896",
    "simulate_point((2,2,2,2), 0000, (1,1), trials=3, seed=11) CSV":
        "5eb29634f9bc709f8368869e54bffcb5b032ed4dda3970d07b4d987cf50e7b34",
    "build_scheme w1 + w2 bytes, counts 1..2, seed 7":
        "80c33e52ff4767744c13521dcf128cb9d5548a5c5a2a85c39972ba521fadc51a",
}


def _scheme_vector_bytes() -> bytes:
    # The drawn vectors, which the sweep's JSON does not read: every scheme at
    # counts 1..2 (1,290), each config's channel and vectors drawn with seed 7.
    parts = []
    for counts in itertools.product((1, 2), repeat=4):
        config = AntennaConfig(*counts)
        channel = sample_channel(config, seed=7)
        for scenario in ALL_SCENARIOS:
            for point in sorted(inner_points(config, scenario).points):
                scheme = build_scheme(config, scenario, *point, channel, seed=7)
                parts.append(scheme.w1.tobytes() + scheme.w2.tobytes())
    return b"".join(parts)


def test_criterion_9b_seeded_outputs_keep_their_recorded_sha256():
    outputs = {
        "achievability_sweep(3, 1, seed=21) JSON":
            json.dumps(achievability_sweep(3, 1, seed=21).to_json_list()).encode(),
        "simulate_point((2,2,2,2), 0000, (1,1), trials=3, seed=11) CSV":
            simulate_point(AntennaConfig(2, 2, 2, 2), CognitionScenario(), 1, 1,
                           trials=3, seed=11).to_csv().encode(),
        "build_scheme w1 + w2 bytes, counts 1..2, seed 7": _scheme_vector_bytes(),
    }
    changed = [name for name, data in outputs.items()
               if hashlib.sha256(data).hexdigest() != SEEDED_SHA256[name]]
    _report(9, not changed, f"seeded outputs keep their recorded sha256; changed: {changed}")
