"""Command-line front end: DOF formulas, regions, verification sweeps,
achievability checks, and rate simulations, all reproducible by seed.

Exit status is 0 only when every requested check met its threshold, 1 when
a check failed, including a simulate trial whose scheme is not decodable,
and 2 when the arguments were rejected, including a --point outside the
achievable set and an --out path that cannot be written.  Past argparse's
own checks, every rejected argument is a ValueError (or an OSError) that
``main`` prints as ``error: <message>``.

Each of ``dof``, ``region``, ``achieve`` and ``coop-bound`` builds its result
once, as the report dict that ``--format json`` prints, and its text view
reads the report's values; ``_emit`` is the one place that picks the view.
JSON output carries full precision; text output rounds to 4 significant
digits.  The MICDOF_OUTPUT_DIR environment variable, when set, is the base
directory for relative output paths.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction

from .channel import AntennaConfig, CognitionScenario, sample_channels
from .regions import (
    _ORDERING_POSITIONS,
    _inner_caps,
    _ordering_holds,
    _outer_caps,
    dof_cooperation,
    dof_cooperation_upper_bounds,
    dof_formula,
    inner_region,
    lemma5_holds,
    outer_region,
    regions_equal,
)
from .zf import _require_achievable, _sweep_cells
from .rates import (
    COOP_SLOPE_THRESHOLD,
    UndecodableSchemeError,
    cooperation_dof_gap_check,
    default_rho_grid,
    simulate_point,
)

SLOPE_TOLERANCE = 0.03


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _parse_config(text: str) -> AntennaConfig:
    try:
        if text.strip().startswith("{"):
            data = json.loads(text)
            return AntennaConfig.from_json_dict(data)
        parts = [int(p) for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError("expected four comma-separated antenna counts")
        return AntennaConfig(*parts)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise argparse.ArgumentTypeError(f"invalid config {text!r}: {exc}") from exc


def _parse_scenario(text: str) -> CognitionScenario:
    try:
        if text.strip().startswith("["):
            return CognitionScenario.from_bits(json.loads(text))
        return CognitionScenario.from_bits([int(p) for p in text.split(",")])
    except (ValueError, json.JSONDecodeError) as exc:
        raise argparse.ArgumentTypeError(f"invalid scenario {text!r}: {exc}") from exc


def _parse_point(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"invalid point {text!r}: expected d1,d2")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid point {text!r}: {exc}") from exc


def _write(path: str, text: str) -> None:
    """Write an output file; a relative path is read under MICDOF_OUTPUT_DIR when set."""
    base = os.environ.get("MICDOF_OUTPUT_DIR")
    with open(os.path.join(base, path) if base else path, "w") as fh:
        fh.write(text)


def _emit(args, report: dict, text: str) -> None:
    """Print a command's report: one JSON line under --format json, else its text view."""
    print(json.dumps(report) if args.format == "json" else text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="micdof",
        description=(
            "Degrees-of-freedom analyzer for the two-user MIMO interference "
            "channel with cognitive message sharing and cooperation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dof = sub.add_parser("dof", help="closed-form DOF values")
    p_dof.add_argument("--config", type=_parse_config, required=True,
                       help="antenna counts m1,m2,n1,n2")
    mode = p_dof.add_mutually_exclusive_group()
    mode.add_argument("--scenario", type=_parse_scenario, default=CognitionScenario(),
                      help="cognition bits t1,t2,r1,r2 (default all zero)")
    mode.add_argument("--all-scenarios", action="store_true",
                      help="print a 16-row scenario table")
    mode.add_argument("--cooperation", action="store_true",
                      help="print the cooperation DOF and its upper bounds")
    p_dof.add_argument("--format", choices=("text", "json"), default="text")

    p_region = sub.add_parser("region", help="inner/outer DOF regions")
    p_region.add_argument("--config", type=_parse_config, required=True)
    p_region.add_argument("--scenario", type=_parse_scenario, required=True)
    p_region.add_argument("--format", choices=("text", "json"), default="text")
    p_region.add_argument("--out", default=None, help="write the JSON report here")

    p_verify = sub.add_parser("verify", help="exhaustive exact identity sweeps")
    p_verify.add_argument("--max-antennas", type=int, default=4)
    p_verify.add_argument("--which", choices=("regions", "lemma5", "ordering", "all"),
                          default="all")

    p_achieve = sub.add_parser("achieve", help="build and verify ZF schemes")
    p_achieve.add_argument("--config", type=_parse_config, required=True)
    p_achieve.add_argument("--scenario", type=_parse_scenario, required=True)
    p_achieve.add_argument("--point", type=_parse_point, required=True)
    p_achieve.add_argument("--trials", type=int, default=50)
    p_achieve.add_argument("--seed", type=int, default=0)
    p_achieve.add_argument("--format", choices=("text", "json"), default="text")

    p_sim = sub.add_parser("simulate", help="finite-SNR rate sweep and DOF slope")
    p_sim.add_argument("--config", type=_parse_config, required=True)
    p_sim.add_argument("--scenario", type=_parse_scenario, required=True)
    p_sim.add_argument("--point", type=_parse_point, required=True)
    p_sim.add_argument("--rho-min", type=float, default=1e4)
    p_sim.add_argument("--rho-max", type=float, default=1e10)
    p_sim.add_argument("--points", type=int, default=7)
    p_sim.add_argument("--trials", type=int, default=10)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default=None,
                       help="CSV path; a .json sidecar is written next to it")

    p_coop = sub.add_parser("coop-bound", help="cooperation genie-bound saturation")
    p_coop.add_argument("--config", type=_parse_config, required=True)
    p_coop.add_argument("--trials", type=int, default=10)
    p_coop.add_argument("--seed", type=int, default=0)
    p_coop.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _cmd_dof(args) -> int:
    config: AntennaConfig = args.config
    report = {"config": config.to_json_dict()}
    if args.cooperation:
        report["dof_cooperation"] = dof_cooperation(config)
        report["upper_bounds"] = list(dof_cooperation_upper_bounds(config))
        text = (f"dof with cooperation: {report['dof_cooperation']} "
                f"(upper bounds {', '.join(map(str, report['upper_bounds']))})")
    elif args.all_scenarios:
        report["table"] = [{"scenario": list(s.bits), "dof": dof_formula(config, s)}
                           for s in CognitionScenario.all_scenarios()]
        text = "\n".join(f"{','.join(map(str, row['scenario']))}  ->  {row['dof']}"
                         for row in report["table"])
    else:
        report["scenario"] = list(args.scenario.bits)
        report["dof"] = dof_formula(config, args.scenario)
        text = str(report["dof"])
    _emit(args, report, text)
    return 0


def _cmd_region(args) -> int:
    config, scenario = args.config, args.scenario
    inner, outer = inner_region(config, scenario), outer_region(config, scenario)
    report = {
        "inner": inner.to_json_dict(config, scenario),
        "outer": outer.to_json_dict(config, scenario),
        "equal": regions_equal(inner, outer),
    }
    if args.out:
        _write(args.out, json.dumps(report, indent=2) + "\n")
    # Vertices and the sum DOF are "p/q" strings in the report.
    verts = ", ".join(f"({Fraction(d1)},{Fraction(d2)})" for d1, d2 in report["outer"]["vertices"])
    _emit(args, report, f"config {config} scenario {scenario}\n"
                        f"vertices: {verts}\n"
                        f"sum dof: {Fraction(report['outer']['sum_dof'])}\n"
                        f"inner equals outer: {'yes' if report['equal'] else 'NO'}")
    return 0 if report["equal"] else 1


def _verify_lemma5() -> tuple[int, list[str]]:
    checks = 0
    failures = []
    for c in range(9):
        for d in range(9):
            checks += 1
            if not lemma5_holds(c, d, box=20):
                failures.append(f"clipped-sum identity fails at c={c}, d={d}")
    return checks, failures


def _verify_configs(configs: list[AntennaConfig]) -> tuple[list[str], list[str]]:
    """The region and ordering sweeps' failures, config by config.  The 16
    scenarios are built once; each config's 16 outer cap triples (A, B, C),
    16 inner cap triples and 16 ``dof_formula`` values are computed once, as
    lists in ``all_scenarios()`` order, and shared by both sweeps.  Both
    triples are normalised to A, B <= C <= A + B, so the regions are equal
    exactly when the triples are, and the LP value is then C.  The ordering
    check reads the chain's outer caps and formula values by position, and
    the cooperation check the no-cognition inner C, the first in that
    order."""
    region_failures: list[str] = []
    ordering_failures: list[str] = []
    scenarios = CognitionScenario.all_scenarios()
    for config in configs:
        caps = [_outer_caps(config, s) for s in scenarios]
        inner = [_inner_caps(config, s) for s in scenarios]
        etas = [dof_formula(config, s) for s in scenarios]
        for scenario, (a, b, c), achievable, eta in zip(scenarios, caps, inner, etas):
            if type(a) is not int or type(b) is not int or type(c) is not int:
                region_failures.append(f"non-integer vertex at {config} {scenario}")
                continue
            if achievable != (a, b, c):
                region_failures.append(f"region mismatch at {config} {scenario}")
                continue
            if eta != c:
                region_failures.append(f"formula/LP mismatch at {config} {scenario}")
        if not _ordering_holds([caps[i] for i in _ORDERING_POSITIONS],
                               [etas[i] for i in _ORDERING_POSITIONS]):
            ordering_failures.append(f"cognition ordering fails at {config}")
        if dof_cooperation(config) != inner[0][2]:
            ordering_failures.append(
                f"cooperation DOF differs from the largest achievable no-cognition "
                f"sum at {config}"
            )
    return region_failures, ordering_failures


def _cmd_verify(args) -> int:
    if not 1 <= args.max_antennas <= 5:
        raise ValueError("--max-antennas must be between 1 and 5")
    counts = range(1, args.max_antennas + 1)
    configs = [AntennaConfig(*c) for c in itertools.product(counts, repeat=4)]
    region_failures, ordering_failures = _verify_configs(
        [] if args.which == "lemma5" else configs)
    total_checks = 0
    failures: list[str] = []
    for name, run, counted in (
        ("regions", lambda: (16 * len(configs), region_failures), "config/scenario cases"),
        ("lemma5", _verify_lemma5, "(c, d) pairs"),
        ("ordering", lambda: (len(configs), ordering_failures), "configs"),
    ):
        if args.which in (name, "all"):
            checks, fails = run()
            total_checks += checks
            failures += fails
            print(f"{name}: {checks} {counted} checked")
    if failures:
        for line in failures:
            print(f"FAIL: {line}")
        print(f"FAIL ({len(failures)} of {total_checks} checks)")
        return 1
    print(f"PASS ({total_checks} checks)")
    return 0


def _cmd_achieve(args) -> int:
    """One sweep cell: the point's trials on channels seeded --seed + trial."""
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    _require_achievable(args.config, args.scenario, *args.point)
    channels = sample_channels(args.config, range(args.seed, args.seed + args.trials))
    cell = _sweep_cells([(args.config, args.scenario, args.point, channels, args.seed)])[0]
    report = cell.to_json_dict()
    _emit(args, report, f"{report['passes']}/{report['trials']} trials passed, "
                        f"worst null residual {_fmt(report['worst_null_residual'])}")
    return 0 if report["passes"] == report["trials"] else 1


def _cmd_simulate(args) -> int:
    config, scenario = args.config, args.scenario
    d1, d2 = args.point
    grid = default_rho_grid(args.rho_min, args.rho_max, args.points)
    try:
        sweep = simulate_point(config, scenario, d1, d2, trials=args.trials,
                               seed=args.seed, rho_grid=grid)
    except UndecodableSchemeError as exc:  # a failed check, not a rejected argument
        print(f"error: {exc}", file=sys.stderr)
        return 1
    eta = dof_formula(config, scenario)
    target = d1 + d2
    if args.out:
        _write(args.out, sweep.to_csv())
        sidecar = {
            "slope": sweep.slope,
            "intercept": sweep.intercept,
            "config": config.to_json_dict(),
            "scenario": list(scenario.bits),
            "point": [d1, d2],
        }
        _write(args.out + ".json", json.dumps(sidecar) + "\n")
    print(f"fitted slope: {_fmt(sweep.slope)}  (point target {target}, formula dof {eta})")
    relative_err = abs(sweep.slope - target) / target if target else abs(sweep.slope)
    return 0 if relative_err <= SLOPE_TOLERANCE else 1


def _cmd_coop_bound(args) -> int:
    report = cooperation_dof_gap_check(args.config, trials=args.trials,
                                       seed=args.seed).to_json_dict()
    bounds = report["upper_bounds"]
    _emit(args, report, f"max per-antenna bound-term slope: {_fmt(report['max_term_slope'])} "
                        f"(threshold {COOP_SLOPE_THRESHOLD})\n"
                        f"dof with cooperation: {report['dof_cooperation']} <= "
                        f"min({', '.join(map(str, bounds))}) = {min(bounds)}\n"
                        + ("PASS" if report["passed"] else "FAIL"))
    return 0 if report["passed"] else 1


_HANDLERS = {
    "dof": _cmd_dof,
    "region": _cmd_region,
    "verify": _cmd_verify,
    "achieve": _cmd_achieve,
    "simulate": _cmd_simulate,
    "coop-bound": _cmd_coop_bound,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
