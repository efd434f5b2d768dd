"""Command-line front end: DOF formulas, regions, verification sweeps,
achievability checks, and rate simulations, all reproducible by seed.

Exit status is 0 only when every requested check met its threshold, 1 when
a check failed, and 2 when the arguments were rejected, including a --point
outside the achievable set and an --out path that cannot be written.  JSON
output carries full precision; text output rounds to 4 significant digits.
The MICDOF_OUTPUT_DIR environment variable, when set, is the base directory
for relative output paths.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from .channel import AntennaConfig, CognitionScenario, sample_channels
from .regions import (
    dof_cooperation,
    dof_cooperation_upper_bounds,
    dof_formula,
    inner_points,
    inner_region,
    lemma5_holds,
    outer_region,
    regions_equal,
    scenario_ordering_holds,
    sum_dof_lp,
)
from .zf import _require_achievable, _sweep_cells
from .rates import (
    COOP_SLOPE_THRESHOLD,
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


def _resolve_out(path: str) -> str:
    base = os.environ.get("MICDOF_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


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
    p_dof.add_argument("--scenario", type=_parse_scenario, default=None,
                       help="cognition bits t1,t2,r1,r2 (default all zero)")
    p_dof.add_argument("--all-scenarios", action="store_true",
                       help="print a 16-row scenario table")
    p_dof.add_argument("--cooperation", action="store_true",
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
    if args.cooperation:
        eta = dof_cooperation(config)
        bounds = dof_cooperation_upper_bounds(config)
        if args.format == "json":
            print(json.dumps({
                "config": config.to_json_dict(),
                "dof_cooperation": eta,
                "upper_bounds": list(bounds),
            }))
        else:
            print(f"dof with cooperation: {eta} (upper bounds {bounds[0]}, {bounds[1]})")
        return 0
    if args.all_scenarios:
        rows = [
            {"scenario": list(s.bits), "dof": dof_formula(config, s)}
            for s in CognitionScenario.all_scenarios()
        ]
        if args.format == "json":
            print(json.dumps({"config": config.to_json_dict(), "table": rows}))
        else:
            for row in rows:
                bits = ",".join(str(b) for b in row["scenario"])
                print(f"{bits}  ->  {row['dof']}")
        return 0
    scenario = args.scenario or CognitionScenario()
    eta = dof_formula(config, scenario)
    if args.format == "json":
        print(json.dumps({
            "config": config.to_json_dict(),
            "scenario": list(scenario.bits),
            "dof": eta,
        }))
    else:
        print(eta)
    return 0


def _cmd_region(args) -> int:
    config, scenario = args.config, args.scenario
    inner = inner_region(config, scenario)
    outer = outer_region(config, scenario)
    equal = regions_equal(inner, outer)
    report = {
        "inner": inner.to_json_dict(config, scenario),
        "outer": outer.to_json_dict(config, scenario),
        "equal": equal,
    }
    if args.out:
        path = _resolve_out(args.out)
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    if args.format == "json":
        print(json.dumps(report))
    else:
        verts = ", ".join(f"({v.d1},{v.d2})" for v in outer.vertices)
        print(f"config {config} scenario {scenario}")
        print(f"vertices: {verts}")
        print(f"sum dof: {sum_dof_lp(outer)}")
        print(f"inner equals outer: {'yes' if equal else 'NO'}")
    return 0 if equal else 1


def _verify_regions(max_antennas: int) -> tuple[int, list[str]]:
    checks = 0
    failures: list[str] = []
    scenarios = CognitionScenario.all_scenarios()
    for counts in itertools.product(range(1, max_antennas + 1), repeat=4):
        config = AntennaConfig(*counts)
        for scenario in scenarios:
            inner = inner_region(config, scenario)
            outer = outer_region(config, scenario)
            checks += 1
            if not regions_equal(inner, outer):
                failures.append(f"region mismatch at {config} {scenario}")
                continue
            if dof_formula(config, scenario) != sum_dof_lp(outer):
                failures.append(f"formula/LP mismatch at {config} {scenario}")
            if any(type(v.d1) is not int or type(v.d2) is not int for v in outer.vertices):
                failures.append(f"non-integer vertex at {config} {scenario}")
    return checks, failures


def _verify_lemma5() -> tuple[int, list[str]]:
    checks = 0
    failures = []
    for c in range(9):
        for d in range(9):
            checks += 1
            if not lemma5_holds(c, d, box=20):
                failures.append(f"clipped-sum identity fails at c={c}, d={d}")
    return checks, failures


def _verify_ordering(max_antennas: int) -> tuple[int, list[str]]:
    checks = 0
    failures = []
    for counts in itertools.product(range(1, max_antennas + 1), repeat=4):
        config = AntennaConfig(*counts)
        checks += 1
        if not scenario_ordering_holds(config):
            failures.append(f"cognition ordering fails at {config}")
        achievable = inner_points(config, CognitionScenario()).points
        if dof_cooperation(config) != max(d1 + d2 for d1, d2 in achievable):
            failures.append(
                f"cooperation DOF differs from the largest achievable no-cognition "
                f"sum at {config}"
            )
    return checks, failures


def _cmd_verify(args) -> int:
    if not 1 <= args.max_antennas <= 5:
        print("error: --max-antennas must be between 1 and 5", file=sys.stderr)
        return 2
    total_checks = 0
    failures: list[str] = []
    for name, run, counted in (
        ("regions", lambda: _verify_regions(args.max_antennas), "config/scenario cases"),
        ("lemma5", _verify_lemma5, "(c, d) pairs"),
        ("ordering", lambda: _verify_ordering(args.max_antennas), "configs"),
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
    cell = _sweep_cells(args.config, [(args.scenario, args.point, channels, args.seed)])[0]
    if args.format == "json":
        print(json.dumps(cell.to_json_dict()))
    else:
        print(f"{cell.passes}/{cell.trials} trials passed, "
              f"worst null residual {_fmt(cell.worst_null_residual)}")
    return 0 if cell.passes == cell.trials else 1


def _cmd_simulate(args) -> int:
    config, scenario = args.config, args.scenario
    d1, d2 = args.point
    grid = default_rho_grid(args.rho_min, args.rho_max, args.points)
    sweep = simulate_point(config, scenario, d1, d2, trials=args.trials,
                           seed=args.seed, rho_grid=grid)
    eta = dof_formula(config, scenario)
    target = d1 + d2
    if args.out:
        csv_path = _resolve_out(args.out)
        with open(csv_path, "w") as fh:
            fh.write(sweep.to_csv())
        sidecar = {
            "slope": sweep.slope,
            "intercept": sweep.intercept,
            "config": config.to_json_dict(),
            "scenario": list(scenario.bits),
            "point": [d1, d2],
        }
        with open(csv_path + ".json", "w") as fh:
            json.dump(sidecar, fh)
            fh.write("\n")
    print(f"fitted slope: {_fmt(sweep.slope)}  (point target {target}, formula dof {eta})")
    relative_err = abs(sweep.slope - target) / target if target else abs(sweep.slope)
    return 0 if relative_err <= SLOPE_TOLERANCE else 1


def _cmd_coop_bound(args) -> int:
    report = cooperation_dof_gap_check(args.config, trials=args.trials, seed=args.seed)
    if args.format == "json":
        print(json.dumps(report.to_json_dict()))
    else:
        print(f"max per-antenna bound-term slope: {_fmt(report.max_term_slope)} "
              f"(threshold {COOP_SLOPE_THRESHOLD})")
        print(f"dof with cooperation: {report.dof} <= "
              f"min{report.upper_bounds} = {min(report.upper_bounds)}")
        print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


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
