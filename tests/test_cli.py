import hashlib
import itertools
import json

import pytest

import micdof.cli
import micdof.regions
from micdof.channel import CognitionScenario
from micdof.cli import main
from micdof.regions import (
    DofPoint,
    _inner_caps,
    _outer_caps,
    dof_cooperation,
    dof_formula,
)
from micdof.zf import _derived_seed, achievability_sweep


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------- dof


def test_dof_default_scenario(capsys):
    code, out, _ = run(capsys, "dof", "--config", "1,3,3,1")
    assert code == 0
    assert out.strip() == "1"


def test_dof_with_scenario(capsys):
    code, out, _ = run(capsys, "dof", "--config", "1,3,3,1", "--scenario", "0,1,0,0")
    assert code == 0
    assert out.strip() == "3"


def test_dof_cooperation(capsys):
    code, out, _ = run(capsys, "dof", "--config", "2,2,2,2", "--cooperation")
    assert code == 0
    assert "2" in out and "(upper bounds 2, 2)" in out


def test_dof_all_scenarios_table(capsys):
    code, out, _ = run(capsys, "dof", "--config", "2,2,2,2", "--all-scenarios",
                       "--format", "json")
    assert code == 0
    table = json.loads(out)["table"]
    assert len(table) == 16
    by_bits = {tuple(row["scenario"]): row["dof"] for row in table}
    assert by_bits[(0, 0, 0, 0)] == 2
    assert by_bits[(1, 1, 0, 0)] == 4


def test_dof_accepts_json_config(capsys):
    code, out, _ = run(capsys, "dof", "--config", '{"m1":1,"m2":3,"n1":3,"n2":1}')
    assert code == 0
    assert out.strip() == "1"


def test_dof_rejects_bad_config(capsys):
    code, out, err = run(capsys, "dof", "--config", "0,2,2,2")
    assert code == 2
    assert out == "" and "m1" in err


@pytest.mark.parametrize("modes", [
    ("--scenario", "1,1,0,0", "--cooperation"),
    ("--scenario", "1,1,0,0", "--all-scenarios"),
    ("--all-scenarios", "--cooperation"),
])
def test_dof_modes_are_exclusive(capsys, modes):
    # A second mode is refused, not silently preferred over the first.
    code, out, err = run(capsys, "dof", "--config", "2,2,2,2", *modes)
    assert code == 2
    assert out == "" and "not allowed with argument" in err


# -------------------------------------------------------------------- region


def test_region_text_output(capsys):
    code, out, _ = run(capsys, "region", "--config", "2,2,2,2",
                       "--scenario", "0,0,0,0")
    assert code == 0
    assert "(0,0), (2,0), (0,2)" in out
    assert "inner equals outer: yes" in out


def test_region_json_schema(capsys):
    code, out, _ = run(capsys, "region", "--config", "1,1,1,1",
                       "--scenario", "0,0,0,0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True
    for key in ("inner", "outer"):
        region = data[key]
        assert region["config"] == {"m1": 1, "m2": 1, "n1": 1, "n2": 1}
        assert region["scenario"] == [0, 0, 0, 0]
        assert {"a1", "a2", "b"} == set(region["halfspaces"][0])
        assert region["sum_dof"] == "1/1"


def test_region_sum_dof(capsys):
    code, out, _ = run(capsys, "region", "--config", "1,3,3,1",
                       "--scenario", "0,1,0,0")
    assert code == 0
    assert "sum dof: 3" in out


def test_region_json_is_pinned(capsys):
    # The report's bytes for every config at counts 1..3 and every scenario,
    # concatenated.  The inner region is reported field by field as the
    # outer one is: nonnegativity, then the caps on d1, d2 and d1 + d2.
    texts = []
    for counts in itertools.product(range(1, 4), repeat=4):
        for scenario in CognitionScenario.all_scenarios():
            code, out, _ = run(capsys, "region", "--config", ",".join(map(str, counts)),
                               "--scenario", ",".join(map(str, scenario.bits)),
                               "--format", "json")
            report = json.loads(out)
            assert code == 0 and report["equal"] is True
            assert report["inner"] == report["outer"], (counts, scenario)
            texts.append(out)
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert digest == "dbaa013329a129076ba31618f2326ff011c34175f5301f78c140802b54276a1d"


def test_region_writes_report(tmp_path, capsys):
    out_file = tmp_path / "region.json"
    code, _, _ = run(capsys, "region", "--config", "2,2,2,2",
                     "--scenario", "0,0,0,0", "--out", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["equal"] is True


def test_output_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MICDOF_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run(capsys, "region", "--config", "1,1,1,1",
                     "--scenario", "0,0,0,0", "--out", "r.json")
    assert code == 0
    assert (tmp_path / "r.json").exists()


# -------------------------------------------------------------------- verify


def test_verify_small_all(capsys):
    code, out, _ = run(capsys, "verify", "--max-antennas", "2", "--which", "all")
    assert code == 0
    assert "PASS" in out
    assert "regions: 256" in out


def test_verify_lemma5_only(capsys):
    code, out, _ = run(capsys, "verify", "--which", "lemma5")
    assert code == 0
    assert "lemma5: 81" in out


def test_verify_fails_on_loosened_outer_bound(capsys, monkeypatch):
    def loosened(config, scenario):
        a, b, c = _outer_caps(config, scenario)
        return a + 1, b, c

    monkeypatch.setattr(micdof.cli, "_outer_caps", loosened)
    code, out, _ = run(capsys, "verify", "--max-antennas", "2", "--which", "regions")
    assert code == 1
    assert "FAIL: region mismatch" in out


def test_verify_fails_on_a_tightened_sum_cap(capsys, monkeypatch):
    # The outer caps shrink, so they no longer equal the inner caps.
    def tightened(config, scenario):
        a, b, c = _outer_caps(config, scenario)
        return min(a, c - 1), min(b, c - 1), c - 1

    monkeypatch.setattr(micdof.cli, "_outer_caps", tightened)
    code, out, _ = run(capsys, "verify", "--max-antennas", "2", "--which", "regions")
    assert code == 1
    assert "FAIL: region mismatch" in out


@pytest.mark.parametrize("lowered", [0, 1, 2])
def test_verify_fails_on_a_lowered_cap(capsys, monkeypatch, lowered):
    # Lowering any one outer cap makes the two triples differ in every case,
    # and no other check runs or fails.
    def lowered_cap(config, scenario):
        caps = list(_outer_caps(config, scenario))
        caps[lowered] -= 1
        return tuple(caps)

    monkeypatch.setattr(micdof.cli, "_outer_caps", lowered_cap)
    code, out, _ = run(capsys, "verify", "--max-antennas", "2", "--which", "regions")
    assert code == 1
    assert all(line.startswith("FAIL: region mismatch at ") for line in out.splitlines()[1:-1])
    assert out.endswith("FAIL (256 of 256 checks)\n")


def test_verify_fails_on_wrong_formula(capsys, monkeypatch):
    monkeypatch.setattr(micdof.cli, "dof_formula", lambda c, s: dof_formula(c, s) + 1)
    code, out, _ = run(capsys, "verify", "--max-antennas", "2", "--which", "regions")
    assert code == 1
    assert "FAIL: formula/LP mismatch" in out


def test_verify_fails_on_float_vertices(capsys, monkeypatch):
    # Float caps compare equal to the inner caps' ints and give the same LP
    # value, so only the integrality check, which runs first, can see them.
    def floated(config, scenario):
        return tuple(float(cap) for cap in _outer_caps(config, scenario))

    monkeypatch.setattr(micdof.cli, "_outer_caps", floated)
    code, out, _ = run(capsys, "verify", "--max-antennas", "2", "--which", "regions")
    assert code == 1
    assert "FAIL: region mismatch" not in out and "FAIL: formula/LP mismatch" not in out
    assert "FAIL: non-integer vertex at (1,1,1,1) [0,0,0,0]" in out
    assert out.endswith("FAIL (256 of 256 checks)\n")


def test_verify_fails_on_wrong_cooperation_dof(capsys, monkeypatch):
    monkeypatch.setattr(micdof.cli, "dof_cooperation", lambda c: dof_cooperation(c) + 1)
    code, out, _ = run(capsys, "verify", "--max-antennas", "2", "--which", "ordering")
    assert code == 1
    assert "FAIL: cooperation DOF differs" in out
    assert out.endswith("FAIL (16 of 16 checks)\n")


@pytest.mark.parametrize("which,builds", [
    ("all", 256), ("regions", 256), ("ordering", 256), ("lemma5", 0),
])
def test_verify_builds_each_outer_region_once(capsys, monkeypatch, which, builds):
    # The region and ordering sweeps share a config's 16 outer cap triples,
    # each read once, whichever sweeps are asked for; lemma5 reads none.
    built = []

    def counted(config, scenario):
        built.append((config, scenario))
        return _outer_caps(config, scenario)

    monkeypatch.setattr(micdof.cli, "_outer_caps", counted)
    monkeypatch.setattr(micdof.regions, "_outer_caps", counted)
    code, _, _ = run(capsys, "verify", "--max-antennas", "2", "--which", which)
    assert code == 0
    assert len(built) == len(set(built)) == builds


@pytest.mark.parametrize("which,walks", [
    ("all", 256), ("regions", 256), ("ordering", 256), ("lemma5", 0),
])
def test_verify_walks_each_staircase_once(capsys, monkeypatch, which, walks):
    # Each config's 16 inner cap triples are computed once, whichever sweeps
    # are asked for, and the cooperation check reads the no-cognition one
    # among them.
    walked = []

    def counted(config, scenario):
        walked.append((config, scenario))
        return _inner_caps(config, scenario)

    monkeypatch.setattr(micdof.cli, "_inner_caps", counted)
    monkeypatch.setattr(micdof.regions, "_inner_caps", counted)
    code, _, _ = run(capsys, "verify", "--max-antennas", "2", "--which", which)
    assert code == 0
    assert len(walked) == len(set(walked)) == walks


def test_verify_computes_each_formula_value_once(capsys, monkeypatch):
    # Each config's 16 dof_formula values are shared by the region and
    # ordering checks: 256 calls at counts 1..2, plus the 16 that
    # dof_cooperation makes for the cooperation check.  The inner caps the
    # checks read are a tuple of three plain ints.
    calls = []

    def counted(config, scenario):
        calls.append((config, scenario))
        return dof_formula(config, scenario)

    def checked(config, scenario):
        caps = _inner_caps(config, scenario)
        assert type(caps) is tuple and len(caps) == 3, caps
        assert all(type(cap) is int for cap in caps), caps
        return caps

    monkeypatch.setattr(micdof.cli, "dof_formula", counted)
    monkeypatch.setattr(micdof.regions, "dof_formula", counted)
    monkeypatch.setattr(micdof.cli, "_inner_caps", checked)
    code, out, _ = run(capsys, "verify", "--max-antennas", "2", "--which", "all")
    assert code == 0
    assert out.endswith("PASS (353 checks)\n")
    assert len(calls) == 256 + 16
    assert len(set(calls)) == 256


def test_verify_fails_when_the_clip_in_lemma5_is_dropped(capsys, monkeypatch):
    # Without the clip the two sets differ wherever c != d: 72 of 81 pairs.
    monkeypatch.setattr(micdof.regions, "_pos", lambda x: x)
    code, out, _ = run(capsys, "verify", "--which", "lemma5")
    fails = [line for line in out.splitlines() if line.startswith("FAIL: ")]
    assert code == 1
    assert fails and all(line.startswith("FAIL: clipped-sum identity fails at c=")
                         for line in fails)
    assert "FAIL: clipped-sum identity fails at c=1, d=0" in fails
    assert "FAIL: clipped-sum identity fails at c=2, d=2" not in fails
    assert out.endswith("FAIL (72 of 81 checks)\n")


@pytest.mark.parametrize("lowered", [0, 1, 2])
def test_verify_fails_on_a_lowered_inner_cap(capsys, monkeypatch, lowered):
    # Every other control changes the outer side or a formula; these lower
    # A', B' or C' on the achievable side, so the two triples differ in
    # every case and no other check runs or fails.
    def lowered_cap(config, scenario):
        caps = list(_inner_caps(config, scenario))
        caps[lowered] -= 1
        return tuple(caps)

    monkeypatch.setattr(micdof.cli, "_inner_caps", lowered_cap)
    code, out, _ = run(capsys, "verify", "--max-antennas", "2", "--which", "regions")
    assert code == 1
    assert all(line.startswith("FAIL: region mismatch at ") for line in out.splitlines()[1:-1])
    assert out.endswith("FAIL (256 of 256 checks)\n")


def test_verify_derives_no_inner_halfspaces(capsys, monkeypatch):
    # The region sweep compares the two cap triples only: it builds no inner
    # or outer Region2D.
    def refuse(*args):
        raise AssertionError("verify built a region")

    for module in (micdof.regions, micdof.cli):
        monkeypatch.setattr(module, "inner_region", refuse)
        monkeypatch.setattr(module, "outer_region", refuse)
    monkeypatch.setattr(micdof.regions, "_cap_region", refuse)
    code, out, _ = run(capsys, "verify", "--max-antennas", "2", "--which", "all")
    assert code == 0
    assert out.endswith("PASS (353 checks)\n")


def test_verify_builds_no_dof_point_and_the_scenarios_once(capsys, monkeypatch):
    # The region sweep compares plain int triples, and the 16 scenarios are
    # built once per run, not once per config.
    def refuse(*args):
        raise AssertionError("verify built a DofPoint")

    listed = []
    all_scenarios = CognitionScenario.all_scenarios

    def counted():
        listed.append(1)
        return all_scenarios()

    monkeypatch.setattr(DofPoint, "__new__", refuse)
    monkeypatch.setattr(CognitionScenario, "all_scenarios", staticmethod(counted))
    code, out, _ = run(capsys, "verify", "--max-antennas", "2", "--which", "all")
    assert code == 0
    assert out.endswith("PASS (353 checks)\n")
    assert len(listed) <= 1


def test_verify_stdout_is_pinned(capsys, monkeypatch):
    # The acceptance gate's bytes, clean and under the loosened-A control.
    def sha256(text):
        return hashlib.sha256(text.encode()).hexdigest()

    code, out, _ = run(capsys, "verify", "--max-antennas", "4")
    assert code == 0
    assert sha256(out) == "698a1f4b5925dc266b4438b3d37a7225f96934238a1dc5c1fe7e819d0752c631"

    def loosened(config, scenario):
        a, b, c = _outer_caps(config, scenario)
        return a + 1, b, c

    monkeypatch.setattr(micdof.cli, "_outer_caps", loosened)
    code, out, _ = run(capsys, "verify", "--max-antennas", "3", "--which", "all")
    assert code == 1
    assert len(out.splitlines()) == 1300
    assert sha256(out) == "7af647fbf93bf8bb64ca8e91840f32a1be4f225d37fd9244ae0b6f0d2625d17c"


def test_verify_reports_region_failures_before_ordering_failures(capsys, monkeypatch):
    # Loosening A in every scenario keeps the ordering chain intact, so it
    # is loosened only where receiver 2 is cognitive: both sweeps then fail.
    def loosened(config, scenario):
        a, b, c = _outer_caps(config, scenario)
        return (a + 1 if scenario.r2 else a), b, c

    monkeypatch.setattr(micdof.cli, "_outer_caps", loosened)
    code, out, _ = run(capsys, "verify", "--max-antennas", "2", "--which", "all")
    lines = out.splitlines()
    assert code == 1
    assert lines[:3] == [
        "regions: 256 config/scenario cases checked",
        "lemma5: 81 (c, d) pairs checked",
        "ordering: 16 configs checked",
    ]
    fails = lines[3:-1]
    assert all(line.startswith("FAIL: ") for line in fails)
    region_fails = [line for line in fails if "region mismatch" in line]
    ordering_fails = [line for line in fails if "cognition ordering fails" in line]
    assert region_fails and ordering_fails
    assert fails == region_fails + ordering_fails
    assert region_fails == sorted(region_fails)  # config by config, scenario by scenario
    assert lines[-1] == f"FAIL ({len(fails)} of 353 checks)"


@pytest.mark.parametrize("loosen", [False, True])
def test_verify_which_prints_its_lines_of_all(capsys, monkeypatch, loosen):
    # Each sweep asked for alone prints its header and FAIL lines exactly as
    # --which all does: all prints the three headers, then the three sweeps'
    # FAIL lines in the same order.  Loosening A where receiver 2 is
    # cognitive makes the region and ordering sweeps fail.
    if loosen:
        def loosened(config, scenario):
            a, b, c = _outer_caps(config, scenario)
            return (a + 1 if scenario.r2 else a), b, c

        monkeypatch.setattr(micdof.cli, "_outer_caps", loosened)

    def summary(fails, checks):
        return f"FAIL ({len(fails)} of {checks} checks)" if fails else f"PASS ({checks} checks)"

    _, everything, _ = run(capsys, "verify", "--max-antennas", "3", "--which", "all")
    headers, fails, checks = [], [], 0
    for which in ("regions", "lemma5", "ordering"):
        code, out, _ = run(capsys, "verify", "--max-antennas", "3", "--which", which)
        header, *own_fails, last = out.splitlines()
        assert header.startswith(f"{which}: ")
        own_checks = int(header.split()[1])
        assert (code, last) == (int(bool(own_fails)), summary(own_fails, own_checks))
        headers.append(header)
        fails += own_fails
        checks += own_checks
    assert bool(fails) == loosen
    assert everything.splitlines() == headers + fails + [summary(fails, checks)]


def test_verify_rejects_zero_antennas(capsys):
    code, _, err = run(capsys, "verify", "--max-antennas", "0")
    assert code == 2
    assert "max-antennas" in err


# ------------------------------------------------------------------- achieve


def test_achieve_passes(capsys):
    code, out, _ = run(capsys, "achieve", "--config", "2,2,2,2",
                       "--scenario", "0,1,0,1", "--point", "1,1",
                       "--trials", "50")
    assert code == 0
    assert "50/50 trials passed" in out


def test_achieve_rejects_unachievable_point(capsys):
    code, _, err = run(capsys, "achieve", "--config", "2,2,2,2",
                       "--scenario", "0,0,0,0", "--point", "2,1")
    assert code == 2
    assert "not in the achievable integer set" in err


def test_achieve_replays_a_sweep_cell(capsys):
    # The sweep and the CLI share one trial verdict and one seed rule.
    seed, trials = 11, 5
    report = achievability_sweep(max_antennas=2, trials=trials, seed=seed)
    cell = max(report.cells, key=lambda c: c.worst_null_residual)
    assert cell.worst_null_residual > 0.0
    s_index = CognitionScenario.all_scenarios().index(cell.scenario)
    cell_seed = _derived_seed(seed, cell.config.counts, s_index)
    code, out, _ = run(capsys, "achieve",
                       "--config", ",".join(map(str, cell.config.counts)),
                       "--scenario", ",".join(map(str, cell.scenario.bits)),
                       "--point", "%d,%d" % cell.point, "--trials", str(trials),
                       "--seed", str(cell_seed), "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert cell.passes == trials
    assert data == cell.to_json_dict()


# ------------------------------------------------------------------ simulate


def test_simulate_writes_csv_and_sidecar(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "simulate", "--config", "2,2,2,2",
                       "--scenario", "0,0,0,0", "--point", "1,1",
                       "--trials", "5", "--rho-max", "1e9",
                       "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "rho,r1,r2,rsum"
    assert len(lines) == 8
    sidecar = json.loads((tmp_path / "sweep.csv.json").read_text())
    assert sidecar["point"] == [1, 1]
    assert sidecar["slope"] == pytest.approx(2.0, rel=0.03)
    assert "fitted slope" in out


def test_simulate_rejects_unachievable_point(capsys):
    code, _, err = run(capsys, "simulate", "--config", "1,1,1,1",
                       "--scenario", "0,0,0,0", "--point", "1,1")
    assert code == 2
    assert "not in the achievable integer set" in err


def test_simulate_reports_an_undecodable_trial_and_exits_1(capsys):
    # A near-collinear draw: at receiver 1, W1's signal and W2's
    # interference count as one direction.  The error names the trial's
    # seed, receiver and ranks with their generic values, and no traceback
    # escapes.
    code, out, err = run(capsys, "simulate", "--config", "2,2,2,2",
                         "--scenario", "0,0,0,0", "--point", "1,1",
                         "--trials", "1", "--seed", "242600675172")
    assert (code, out) == (1, "")
    assert err == (
        "error: scheme fails the rank rule on the channel of seed 242600675172 at "
        "receiver 1 (interference rank 1 of 1, signal rank 0 of 1); rates are undefined\n"
    )


# ---------------------------------------------------------------- coop-bound


def test_coop_bound_passes(capsys):
    code, out, _ = run(capsys, "coop-bound", "--config", "2,2,2,2",
                       "--trials", "10")
    assert code == 0
    assert "PASS" in out


def test_coop_bound_guard(capsys):
    code, _, err = run(capsys, "coop-bound", "--config", "3,1,1,2")
    assert code == 2
    assert "n2 >= m1" in err


def test_coop_bound_single_stream(capsys):
    code, out, _ = run(capsys, "coop-bound", "--config", "1,3,3,1",
                       "--trials", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dof_cooperation"] == 1
    assert data["upper_bounds"] == [1, 3]


# ------------------------------------------------------------ argument errors


@pytest.mark.parametrize("argv", [
    ("simulate", "--config", "2,2,2,2", "--scenario", "0,0,0,0", "--point", "1,1",
     "--trials", "0"),
    ("simulate", "--config", "2,2,2,2", "--scenario", "0,0,0,0", "--point", "1,1",
     "--points", "2"),
    ("simulate", "--config", "2,2,2,2", "--scenario", "0,0,0,0", "--point", "1,1",
     "--rho-min", "1e3"),
    ("coop-bound", "--config", "2,2,2,2", "--trials", "0"),
    ("achieve", "--config", "2,2,2,2", "--scenario", "0,1,0,1", "--point", "1,1",
     "--trials", "0"),
    # A power at or below zero, or NaN, is refused before it reaches log10.
    ("simulate", "--config", "2,2,2,2", "--scenario", "0,0,0,0", "--point", "1,1",
     "--rho-min", "-5"),
    ("simulate", "--config", "2,2,2,2", "--scenario", "0,0,0,0", "--point", "1,1",
     "--rho-min", "0"),
    ("simulate", "--config", "2,2,2,2", "--scenario", "0,0,0,0", "--point", "1,1",
     "--rho-min", "nan"),
    # An --out file in a directory that does not exist cannot be written.
    ("region", "--config", "2,2,2,2", "--scenario", "0,0,0,0", "--out", "<missing>/x.json"),
    ("simulate", "--config", "2,2,2,2", "--scenario", "0,0,0,0", "--point", "1,1",
     "--trials", "1", "--points", "3", "--out", "<missing>/x.csv"),
])
def test_library_argument_errors_exit_2(capsys, tmp_path, argv):
    argv = [arg.replace("<missing>", str(tmp_path / "missing")) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
    if "--rho-min" in argv:
        assert "rho" in err


# ----------------------------------------------------------- reproducibility


def test_identical_command_lines_are_byte_identical(tmp_path, capsys):
    argv = ["region", "--config", "2,3,3,2", "--scenario", "0,1,0,1",
            "--format", "json"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second

    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    for path in (csv_a, csv_b):
        run(capsys, "simulate", "--config", "2,2,2,2", "--scenario", "0,0,0,0",
            "--point", "1,1", "--trials", "3", "--seed", "42",
            "--out", str(path))
    assert csv_a.read_bytes() == csv_b.read_bytes()


# ------------------------------------------------------------------ byte pins

# Each command line's exit code, stdout, stderr and --out files, hashed as
# one sha256 (``_digest``).  The README's ten commands, the JSON view of each
# report, and one line per exit path: arguments rejected by a command and
# by argparse (2), and an undecodable simulate trial (1).
_PINNED = [
    ("dof --config 1,3,3,1",
     "63400b7c6c5bc09fc7350f2c6543f5de81c3648cd8adcf18a16d7bfa62aba7de"),
    ("dof --config 1,3,3,1 --scenario 0,1,0,0",
     "584a80e59d0d5a7fd5c4d968ab77548840d083dff98015748aa5fb3feed7b39f"),
    ("dof --config 2,2,2,2 --all-scenarios",
     "a56a7febb1dbbb59a2ed289381b7a441143eecabd8b4a603e33b17ae02fba5de"),
    ("dof --config 2,2,2,2 --cooperation",
     "2ee76e39687fde325e7a8849e184a1bee7d1dbb9aec3a0cb2a4f9f3b2e721d46"),
    ("region --config 2,2,2,2 --scenario 0,0,0,0",
     "4220c04dc5944041abed209221a538c8aee5fb3a1df4d3b3b1397ae974866859"),
    ("region --config 1,1,1,1 --scenario 0,0,0,0 --format json",
     "58523a13e5ead96c800a89aa01c9d65ca85c1355b547d61ec61d914ec2ad386d"),
    ("verify --max-antennas 4 --which all",
     "b956f4d7b901c2510e0b1c18809bed2bce11c7b9d976945e2a58a26e336426d5"),
    ("achieve --config 2,2,2,2 --scenario 0,1,0,1 --point 1,1 --trials 50",
     "f34896c56f9a75d48dd0c250f1a05474a1a66717b566b8fcf2f28753db4df845"),
    ("simulate --config 2,2,2,2 --scenario 0,0,0,0 --point 1,1 --trials 10 --rho-max 1e9"
     " --out sweep.csv",
     "b04ccf73204cdff3a868285625a9b40dacd0745481a11a942ada54d6fc2d1ed2"),
    ("coop-bound --config 2,2,2,2 --trials 10",
     "77815df1302420dad0a36362757cde9dfb1d87d76ba0dd2ac9f395e920ef13b6"),
    ("dof --config 1,3,3,1 --format json",
     "ce6343e27e0bfaf6f7afb2b0b00abd9664481986c35ac23989eccb4dc55a4d4a"),
    ("dof --config 1,3,3,1 --scenario 0,1,0,0 --format json",
     "b920d8db756666039c8f71f2442022e9aedc07cf7a7d8148388762e24cd77358"),
    ("dof --config 2,2,2,2 --all-scenarios --format json",
     "b6acd3db0458850a52535c3682255f857e1d6414c7c5ab877ad4b73b60d05a67"),
    ("dof --config 2,2,2,2 --cooperation --format json",
     "4258a164ba5015dd182caacadb5d8860efe5ea1d20991328d22362b71fe17628"),
    ("region --config 2,2,2,2 --scenario 0,0,0,0 --format json --out region.json",
     "9e8ad4c6d207665e05a1c2ff0fb7803fa99159b08a490e23b3f856781eaf0ee9"),
    ("achieve --config 2,2,2,2 --scenario 0,1,0,1 --point 1,1 --trials 50 --format json",
     "40cc18dd27662d32456c0a757d864716453fde5a85de2c8262402d0eeaecb487"),
    ("coop-bound --config 2,2,2,2 --trials 10 --format json",
     "d9269c3e70a9393c15b5fe4d7ee95d1adc19f5faeb9097533e2c399fd7ffdfd5"),
    ("verify --max-antennas 0",
     "b0cf240c5f62d7b478f49571b2319f5276066933382c5764202949e9ea7baa00"),
    ("achieve --config 2,2,2,2 --scenario 0,0,0,0 --point 2,1",
     "d58de4f86811e1d987413669f55c0f713d2d37599b62c47280c3cb5c0232a70c"),
    ("coop-bound --config 3,1,1,2",
     "d41bbb4e624455ccf1d4385e6c935e88b4ecca51d687cedc999a7899eef75aba"),
    ("simulate --config 2,2,2,2 --scenario 0,0,0,0 --point 1,1 --trials 1 --seed 242600675172",
     "123791109191e4ae80d99d96a65ff89c45da30ddbb5b784bd0412af74f9cd424"),
    ("dof --config 0,2,2,2",
     "e9015a3c8a2383b98f159247d65d03cb2b1f042477abcfa9be4a4890ad7dc1e4"),
    ("dof --config 2,2,2,2 --scenario 1,1,0,0 --cooperation",
     "a3e6e7828debaea2cdae0791b3f36d3e8c52fa1060a5188d3c7b0c8102a912d9"),
]


def _digest(code: int, out: str, err: str, out_dir) -> str:
    digest = hashlib.sha256(f"{code}\0{out}\0{err}".encode())
    for path in sorted(out_dir.iterdir()):
        digest.update(b"\0" + path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("line, expected", _PINNED, ids=[line for line, _ in _PINNED])
def test_every_cli_byte_is_pinned(capsys, tmp_path, monkeypatch, line, expected):
    monkeypatch.setenv("MICDOF_OUTPUT_DIR", str(tmp_path))
    code, out, err = run(capsys, *line.split())
    assert _digest(code, out, err, tmp_path) == expected
